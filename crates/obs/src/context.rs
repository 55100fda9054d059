//! The observation argument every engine entry point takes.

use crate::metrics::MetricsHub;
use crate::tracer::Tracer;

/// What a run reports to while it runs: an optional virtual-time
/// [`Tracer`] and an optional streaming [`MetricsHub`]. Both only
/// observe — results are bit-identical with either, both or neither
/// attached (`tests/metrics_perturbation.rs`).
///
/// Entry points take `impl Into<Obs<'_>>`, so `None`, `&tracer`,
/// `Some(&tracer)`, `&hub` and `Obs::from(&tracer).with_hub(&hub)` are
/// all accepted where an `Obs` is expected.
///
/// ```
/// use ecofl_obs::{MetricsHub, Obs, Tracer};
/// let (tracer, hub) = (Tracer::new(), MetricsHub::new());
/// let obs = Obs::from(&tracer).with_hub(&hub);
/// assert!(obs.tracer.is_some() && obs.hub.is_some());
/// assert!(Obs::from(None).tracer.is_none());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Obs<'a> {
    /// Virtual-time trace recorder.
    pub tracer: Option<&'a Tracer>,
    /// Streaming metrics registry.
    pub hub: Option<&'a MetricsHub>,
}

impl<'a> Obs<'a> {
    /// The same observation with `hub` attached.
    #[must_use]
    pub fn with_hub(self, hub: &'a MetricsHub) -> Self {
        Self {
            hub: Some(hub),
            ..self
        }
    }
}

impl<'a> From<&'a Tracer> for Obs<'a> {
    fn from(tracer: &'a Tracer) -> Self {
        Some(tracer).into()
    }
}

impl<'a> From<Option<&'a Tracer>> for Obs<'a> {
    fn from(tracer: Option<&'a Tracer>) -> Self {
        Self { tracer, hub: None }
    }
}

impl<'a> From<&'a MetricsHub> for Obs<'a> {
    fn from(hub: &'a MetricsHub) -> Self {
        Self::default().with_hub(hub)
    }
}
