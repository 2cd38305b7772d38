use perfbench::stats::{median, percentile, quartiles, tail, Summary};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[7.0]), Some(7.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

/// Reference values from Python's `statistics.quantiles(data, n=4)`.
#[test]
fn quartiles_match_python_exclusive_method() {
    assert_eq!(quartiles(&[5.0]), None);
    let q = quartiles(&[1.0, 2.0]).unwrap();
    assert!(
        close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25),
        "{q:?}"
    );
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let q = quartiles(&ten).unwrap();
    assert!(
        close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
        "{q:?}"
    );
    // Order of the input does not matter.
    let q = quartiles(&[9.0, 1.0, 5.0, 3.0, 7.0]).unwrap();
    assert!(
        close(q[0], 2.0) && close(q[1], 5.0) && close(q[2], 8.0),
        "{q:?}"
    );
}

#[test]
fn nearest_rank_percentile() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&hundred, 90.0), Some(90.0));
    assert_eq!(percentile(&hundred, 100.0), Some(100.0));
    assert_eq!(percentile(&[3.0], 50.0), Some(3.0));
    assert_eq!(percentile(&[], 50.0), None);
}

/// The highest percentile with at least ten samples beyond it.
#[test]
fn tail_needs_ten_samples_beyond() {
    let n = |count: usize| -> Vec<f64> { (1..=count).map(|i| i as f64).collect() };
    assert_eq!(tail(&n(19)), None, "median has only 9 beyond");
    assert_eq!(tail(&n(20)).map(|t| t.0), Some(50.0));
    assert_eq!(
        tail(&n(99)).map(|t| t.0),
        Some(75.0),
        "p90 has only 9 beyond"
    );
    assert_eq!(tail(&n(100)), Some((90.0, 90.0)));
    assert_eq!(
        tail(&n(199)).map(|t| t.0),
        Some(90.0),
        "p95 has only 9 beyond"
    );
    assert_eq!(tail(&n(200)), Some((95.0, 190.0)));
    assert_eq!(tail(&n(1000)), Some((99.0, 990.0)));
}

#[test]
fn summary_carries_count_median_and_tail() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    let s = Summary::of(&v);
    assert_eq!(s.n, 100);
    assert_eq!(s.p50, 50.5);
    assert_eq!(s.tail, Some((90.0, 90.0)));
}
