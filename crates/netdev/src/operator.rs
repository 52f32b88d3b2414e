//! The NetRS operator: the state one RSNode keeps on its switch.
//!
//! §IV composes an operator out of the ingress pipeline (shared, in
//! [`crate::NetRsRules`]), plus two per-RSNode pieces that live and die
//! with the node's plan assignment: the replica-selection algorithm with
//! its locally learned server view, and the accelerator that executes it.
//! [`RsOperator`] bundles those two so the control plane can create,
//! retain, and retire RSNodes as one unit across re-plans.

use netrs_selection::C3Selector;

use crate::{Accelerator, AcceleratorConfig, HotCacheConfig, HotKeyCache};

/// One RSNode's device-resident state: its replica selector (the local
/// information the paper's §II transient is about), the accelerator
/// executing selections and folding in cloned responses, and the
/// optional hot-key cache serving `GET`s straight from the switch.
#[derive(Debug)]
pub struct RsOperator {
    /// The C3 selector with this RSNode's learned server view.
    pub selector: C3Selector,
    /// The accelerator attached to this RSNode's switch.
    pub accel: Accelerator,
    /// The in-switch hot-key cache, when the run enables one.
    pub cache: Option<HotKeyCache>,
}

impl RsOperator {
    /// A fresh operator: the given selector and a new, idle accelerator.
    /// No cache — see [`RsOperator::with_cache`].
    #[must_use]
    pub fn new(selector: C3Selector, accel: AcceleratorConfig) -> Self {
        RsOperator {
            selector,
            accel: Accelerator::new(accel),
            cache: None,
        }
    }

    /// Attaches a fresh, empty hot-key cache.
    #[must_use]
    pub fn with_cache(mut self, cfg: HotCacheConfig) -> Self {
        self.cache = Some(HotKeyCache::new(cfg));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrs_kvstore::ServerId;
    use netrs_selection::{C3Config, ReplicaSelector};
    use netrs_simcore::{SimRng, SimTime};

    #[test]
    fn operator_bundles_selector_and_idle_accelerator() {
        let mut selector = C3Selector::new(C3Config::default(), SimRng::from_seed(1));
        selector.set_concurrency(2.0);
        let mut op = RsOperator::new(selector, AcceleratorConfig::default());
        assert_eq!(op.accel.stats().busy_core_ns, 0);
        let pick = op
            .selector
            .select(&[ServerId(0), ServerId(1)], SimTime::ZERO);
        assert!(pick == ServerId(0) || pick == ServerId(1));
        assert!(format!("{op:?}").contains("C3Selector"));
    }
}
