//! Measured end-to-end benchmark of the fabric: whole S2V, V2S, MD and
//! streaming jobs at lab scale on a single-process bed (4 database
//! nodes, an 8-node engine context), plus a traced run that breaks the
//! time down by layer. See `README.md` in this directory.

pub mod alloc;
pub mod bed;
pub mod check;
pub mod layers;
pub mod meter;
pub mod procfs;
pub mod run;
pub mod stats;
pub mod workloads;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}
