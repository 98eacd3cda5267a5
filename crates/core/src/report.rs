//! Figure results serialize themselves (`ToJson` on each `FigNResult`,
//! rendered by [`crate::json::to_json`]). The three `FigNReport` names
//! below are aliases of those results, kept only because the frozen
//! benchmark imports them.

use crate::experiments::{fig10, fig6, fig9};

/// Figure 6's result under its former report name. Goes with benchmark
/// revision 2 (ROADMAP item 10).
pub type Fig6Report = fig6::Fig6Result;

impl From<&fig6::Fig6Result> for fig6::Fig6Result {
    fn from(r: &fig6::Fig6Result) -> Self {
        r.clone()
    }
}

/// Figure 9's result under its former report name. Goes with benchmark
/// revision 2 (ROADMAP item 10).
pub type Fig9Report = fig9::Fig9Result;

impl From<&fig9::Fig9Result> for fig9::Fig9Result {
    fn from(r: &fig9::Fig9Result) -> Self {
        r.clone()
    }
}

/// Figure 10's result under its former report name. Goes with benchmark
/// revision 2 (ROADMAP item 10).
pub type Fig10Report = fig10::Fig10Result;

impl From<&fig10::Fig10Result> for fig10::Fig10Result {
    fn from(r: &fig10::Fig10Result) -> Self {
        r.clone()
    }
}
