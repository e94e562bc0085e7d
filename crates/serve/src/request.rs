//! The typed client request: payload + per-request knobs behind a builder.

use mx_models::zoo::InputKind;
use mx_nn::qflow::QuantConfig;
use std::time::Duration;

/// An owned request payload (the borrowed twin is
/// [`mx_models::zoo::ZooInput`]).
#[derive(Debug, Clone, PartialEq)]
pub enum RequestInput {
    /// Token ids, for [`InputKind::Tokens`] models.
    Tokens(Vec<usize>),
    /// Raw `f32` features, for [`InputKind::Pixels`] models.
    Pixels(Vec<f32>),
}

impl RequestInput {
    pub(crate) fn kind(&self) -> InputKind {
        match self {
            RequestInput::Tokens(_) => InputKind::Tokens,
            RequestInput::Pixels(_) => InputKind::Pixels,
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            RequestInput::Tokens(t) => t.len(),
            RequestInput::Pixels(p) => p.len(),
        }
    }

    /// Pads the payload in place to `len` elements with zero tokens /
    /// features (the bucket-edge padding; padded outputs are sliced away
    /// before the response is returned).
    pub(crate) fn pad_to(&mut self, len: usize) {
        match self {
            RequestInput::Tokens(t) => t.resize(len, 0),
            RequestInput::Pixels(p) => p.resize(len, 0.0),
        }
    }
}

/// Admission priority: how much of the configured latency SLO a request is
/// allowed to consume before the server sheds it (no SLO configured — no
/// effect).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Never shed by the SLO estimate (still sheds when the shard queue is
    /// hard-full under [`crate::AdmissionConfig::shed_on_full`]).
    High,
    /// Admitted while the predicted wait fits the full SLO.
    #[default]
    Normal,
    /// Admitted only while the predicted wait fits *half* the SLO — the
    /// first traffic to shed as a shard saturates.
    Low,
}

impl Priority {
    /// The admission budget this priority gets out of the configured SLO;
    /// `None` bypasses the estimate entirely.
    pub(crate) fn slo_budget(self, slo: Duration) -> Option<Duration> {
        match self {
            Priority::High => None,
            Priority::Normal => Some(slo),
            Priority::Low => Some(slo / 2),
        }
    }
}

/// One inference request, built fluently and submitted through
/// [`crate::ServerHandle::submit`] / [`crate::ServerHandle::infer`].
///
/// Only the model name and payload are required; quantization defaults to
/// fp32 (no direct cast), no deadline, [`Priority::Normal`].
///
/// ```
/// use mx_serve::{Priority, Request, RequestInput};
/// use mx_nn::{QuantConfig, TensorFormat};
/// use std::time::Duration;
///
/// let req = Request::new("ffn", RequestInput::Pixels(vec![0.5; 64]))
///     .quant(QuantConfig::weights_activations(
///         TensorFormat::MX6,
///         TensorFormat::MX6,
///     ))
///     .deadline(Duration::from_millis(20))
///     .priority(Priority::Low);
/// # let _ = req;
/// ```
#[derive(Debug, Clone)]
pub struct Request {
    pub(crate) model: String,
    pub(crate) input: RequestInput,
    pub(crate) cfg: QuantConfig,
    pub(crate) deadline: Option<Duration>,
    pub(crate) priority: Priority,
}

impl Request {
    /// A request for `model` carrying `input`, with default knobs.
    pub fn new(model: impl Into<String>, input: RequestInput) -> Self {
        Request {
            model: model.into(),
            input,
            cfg: QuantConfig::fp32(),
            deadline: None,
            priority: Priority::default(),
        }
    }

    /// Per-request format selection: the direct cast every tensor op in the
    /// model switches to for this request's batch.
    pub fn quant(mut self, cfg: QuantConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Latency deadline, measured from submission. A request that expires
    /// before execution is answered with
    /// [`crate::ServeError::DeadlineExceeded`] — checked at submit, and
    /// again by the worker just before the batch runs.
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Admission priority (see [`Priority`]).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_fills_defaults_and_overrides() {
        let r = Request::new("m", RequestInput::Tokens(vec![1, 2, 3]));
        assert_eq!(r.model, "m");
        assert_eq!(r.cfg, QuantConfig::fp32());
        assert_eq!(r.deadline, None);
        assert_eq!(r.priority, Priority::Normal);

        let r = r
            .deadline(Duration::from_millis(5))
            .priority(Priority::High);
        assert_eq!(r.deadline, Some(Duration::from_millis(5)));
        assert_eq!(r.priority, Priority::High);
    }

    #[test]
    fn priority_budgets_scale_the_slo() {
        let slo = Duration::from_millis(10);
        assert_eq!(Priority::High.slo_budget(slo), None);
        assert_eq!(Priority::Normal.slo_budget(slo), Some(slo));
        assert_eq!(Priority::Low.slo_budget(slo), Some(slo / 2));
    }

    #[test]
    fn pad_to_extends_with_zeros() {
        let mut t = RequestInput::Tokens(vec![7, 8]);
        t.pad_to(4);
        assert_eq!(t, RequestInput::Tokens(vec![7, 8, 0, 0]));
        let mut p = RequestInput::Pixels(vec![1.5]);
        p.pad_to(3);
        assert_eq!(p, RequestInput::Pixels(vec![1.5, 0.0, 0.0]));
    }
}
