//! Typed GeMM requests: the substrate-independent description of one
//! `C = A · B` that a `CampBackend` implementation (see
//! `camp_core::backend`) executes.
//!
//! The host engine and the cycle-accurate simulated driver historically
//! exposed two disjoint call surfaces (a dtype-suffixed method zoo vs
//! `simulate_gemm*`). A [`GemmRequest`] is the one description both
//! understand: build it once with the typed builder, then hand the same
//! request to any backend (`camp_core::backend` owns the trait):
//!
//! ```
//! use camp_gemm::request::{GemmRequest, Operand};
//! use camp_gemm::weights::DType;
//!
//! let (m, n, k) = (4, 8, 32);
//! let a: Vec<i8> = (0..m * k).map(|i| (i % 13) as i8 - 6).collect();
//! let w: Vec<i8> = (0..k * n).map(|i| (i % 15) as i8 - 7).collect();
//!
//! let req = GemmRequest::builder()
//!     .m(m)
//!     .n(n)
//!     .k(k)
//!     .activation(a)
//!     .weights(Operand::from_dense(w))
//!     .dtype(DType::I8)
//!     .build()
//!     .expect("well-formed request");
//! assert_eq!(req.m(), m);
//! ```
//!
//! Construction is **fallible, not panicking**: [`GemmRequestBuilder::build`]
//! returns [`RequestError`] on shape mismatches (the old APIs asserted),
//! and handle-typed requests are validated against the registry when the
//! backend resolves them ([`GemmRequest::resolve`]), where a dropped
//! registration surfaces as [`RequestError::StaleHandle`].
//!
//! Operands are shared, immutable buffers (`Arc<[i8]>`): cloning a
//! request is cheap and requests outlive threads (a dispatcher's queue
//! holds them until its driver runs them). A dense B is packed by the
//! request that reads it, whichever other requests share its buffer; a
//! weight read by many requests is registered once instead
//! (`CampBackend::weights_mut`), and every request against its handle
//! reads the one packed panel.

use std::sync::Arc;

use crate::weights::{DType, WeightHandle, WeightMeta, WeightSnapshot};

/// Why a request could not be built or executed.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// A builder field required for this operand kind was not set.
    MissingField(&'static str),
    /// An operand's length disagrees with the request dimensions.
    ShapeMismatch {
        /// Which operand ("A" or "B").
        operand: &'static str,
        /// Elements the dimensions require.
        expected: usize,
        /// Elements actually provided.
        got: usize,
    },
    /// The request's n/k/dtype disagree with the handle's registration.
    RegistrationMismatch(&'static str),
    /// The handle was issued by a different registry (another backend).
    ForeignHandle,
    /// The handle's index was never issued by this registry.
    UnknownHandle,
    /// The handle's registration was evicted (or its slot re-used by a
    /// newer registration) — see `WeightRegistry::evict`.
    StaleHandle,
    /// An i4 request carries operand values outside [-8, 7].
    OperandRange(&'static str),
    /// The dimensions name more than memory can hold: `m·k` (operand
    /// "A") or `k·n` ("B") overflows `usize`, or the `m×n` i32 result
    /// ("C") would exceed `isize::MAX` bytes, the most one allocation
    /// can hold.
    Oversized(&'static str),
    /// The backend cannot execute this request (capability gap).
    Unsupported(&'static str),
    /// Admission control: the serving session has its bounded depth
    /// (the carried value) of batches in flight. Back off and resubmit;
    /// the session recovers as its work drains — nothing was enqueued.
    Saturated {
        /// The session's configured admission depth (the documented
        /// bound at which this error fires deterministically).
        depth: usize,
    },
    /// The batch's deadline had already passed when the dispatcher's
    /// driver picked it, so it was shed (completed as cancelled)
    /// instead of computed. Counted in `DispatchStats::shed`.
    Shed,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::MissingField(what) => write!(f, "request field `{what}` is required"),
            RequestError::ShapeMismatch { operand, expected, got } => {
                write!(f, "operand {operand} holds {got} elements, dimensions require {expected}")
            }
            RequestError::RegistrationMismatch(what) => {
                write!(f, "request {what} disagrees with the weight registration")
            }
            RequestError::ForeignHandle => {
                write!(f, "WeightHandle was issued by a different registry")
            }
            RequestError::UnknownHandle => write!(f, "WeightHandle was never issued"),
            RequestError::StaleHandle => {
                write!(f, "WeightHandle registration was evicted (stale handle)")
            }
            RequestError::OperandRange(operand) => {
                write!(f, "i4 operand {operand} holds values outside [-8, 7]")
            }
            RequestError::Oversized(operand) => {
                write!(f, "request dimensions make operand {operand} too large to allocate")
            }
            RequestError::Unsupported(what) => write!(f, "backend cannot execute request: {what}"),
            RequestError::Saturated { depth } => {
                write!(f, "session queue is saturated (bounded depth {depth})")
            }
            RequestError::Shed => {
                write!(f, "batch deadline passed before execution; shed instead of computed")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// The B side of a request: raw weights packed by the backend at call
/// time, or a handle to weights registered (and, on the host, pre-packed)
/// up front.
#[derive(Debug, Clone)]
pub enum Operand {
    /// Row-major k×n weights, shared and immutable. The host engine
    /// packs them for each request that reads them through a panel (the
    /// skinny-m route reads them in place); register a weight that many
    /// requests read, so it is packed once.
    Dense(Arc<[i8]>),
    /// Weights registered with the executing backend's registry
    /// (`CampBackend::weights_mut`).
    Handle(WeightHandle),
}

impl Operand {
    /// Dense weights from any owned or borrowed buffer.
    pub fn from_dense(b: impl Into<Arc<[i8]>>) -> Self {
        Operand::Dense(b.into())
    }
}

impl From<WeightHandle> for Operand {
    fn from(h: WeightHandle) -> Self {
        Operand::Handle(h)
    }
}

/// One validated GeMM: row-major C (m×n) = A (m×k) · B (k×n), with the
/// kernel selected by [`DType`]. Build via [`GemmRequest::builder`]; see
/// the [module docs](self).
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct GemmRequest {
    m: usize,
    /// Always `Some` for dense requests; optional (cross-checked) for
    /// handle requests, whose shape lives in the registration.
    n: Option<usize>,
    k: Option<usize>,
    a: Arc<[i8]>,
    weights: Operand,
    /// `None` means "the registration's dtype" for handles, I8 for
    /// dense operands.
    dtype: Option<DType>,
}

/// The concrete problem a backend runs after resolving a request
/// against its registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedRequest {
    /// Rows of A / C.
    pub m: usize,
    /// Columns of B / C.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Kernel the request runs under.
    pub dtype: DType,
}

impl ResolvedRequest {
    /// Multiply-accumulate operations of the resolved problem.
    pub fn macs(&self) -> u64 {
        self.m as u64 * self.n as u64 * self.k as u64
    }

    /// True if any dimension is zero (the result is empty or all-zero
    /// and no kernel runs).
    pub fn is_degenerate(&self) -> bool {
        self.m == 0 || self.n == 0 || self.k == 0
    }
}

impl GemmRequest {
    /// Start building a request.
    pub fn builder() -> GemmRequestBuilder {
        GemmRequestBuilder::default()
    }

    /// Convenience: a dense i8 request in one call (the builder's
    /// `m/n/k/activation/weights` chain). Use the builder to select
    /// [`DType::I4`].
    pub fn dense(
        m: usize,
        n: usize,
        k: usize,
        a: impl Into<Arc<[i8]>>,
        b: impl Into<Arc<[i8]>>,
    ) -> Result<GemmRequest, RequestError> {
        GemmRequest::builder()
            .m(m)
            .n(n)
            .k(k)
            .activation(a)
            .weights(Operand::Dense(b.into()))
            .build()
    }

    /// Convenience: a request against a registered weight (shape and
    /// dtype resolved from the registration at execute time).
    pub fn with_weights(
        m: usize,
        a: impl Into<Arc<[i8]>>,
        weights: WeightHandle,
    ) -> Result<GemmRequest, RequestError> {
        GemmRequest::builder().m(m).activation(a).weights(Operand::Handle(weights)).build()
    }

    /// Rows of the activation / result.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Requested n, if pinned at build time (always for dense operands).
    pub fn n(&self) -> Option<usize> {
        self.n
    }

    /// Requested k, if pinned at build time (always for dense operands).
    pub fn k(&self) -> Option<usize> {
        self.k
    }

    /// The activation buffer (row-major m×k once resolved).
    pub fn activation(&self) -> &[i8] {
        &self.a
    }

    /// Shared handle to the activation buffer.
    pub fn activation_arc(&self) -> Arc<[i8]> {
        Arc::clone(&self.a)
    }

    /// The B operand.
    pub fn weights(&self) -> &Operand {
        &self.weights
    }

    /// Requested dtype, if pinned at build time.
    pub fn dtype(&self) -> Option<DType> {
        self.dtype
    }

    /// Resolve the request against a backend's registration snapshot:
    /// dense requests use their pinned shape; handle requests take
    /// n/k/dtype from the registration, cross-checked against any the
    /// builder pinned. This is where [`RequestError::StaleHandle`] (and
    /// foreign/unknown handles) surface instead of panicking, and where
    /// an activation is range-checked against an i4 dtype it did not pin
    /// ([`RequestError::OperandRange`]): the build checked a pinned one,
    /// and a registration's i4 weights were checked when registered.
    pub fn resolve(&self, weights: &WeightSnapshot) -> Result<ResolvedRequest, RequestError> {
        let resolved = match &self.weights {
            Operand::Dense(_) => {
                // build() guarantees shape and length coherence
                let (n, k) = (self.n.expect("dense built"), self.k.expect("dense built"));
                ResolvedRequest { m: self.m, n, k, dtype: self.dtype.unwrap_or(DType::I8) }
            }
            Operand::Handle(h) => {
                let meta: WeightMeta = weights.meta(*h)?;
                if let Some(n) = self.n {
                    if n != meta.n {
                        return Err(RequestError::RegistrationMismatch("n"));
                    }
                }
                if let Some(k) = self.k {
                    if k != meta.k {
                        return Err(RequestError::RegistrationMismatch("k"));
                    }
                }
                if let Some(dt) = self.dtype {
                    if dt != meta.dtype {
                        return Err(RequestError::RegistrationMismatch("dtype"));
                    }
                }
                ResolvedRequest { m: self.m, n: meta.n, k: meta.k, dtype: meta.dtype }
            }
        };
        // a handle's k comes from its registration: check m·k here too
        let a_len = elements("A", resolved.m, resolved.k)?;
        if self.a.len() != a_len {
            return Err(RequestError::ShapeMismatch {
                operand: "A",
                expected: a_len,
                got: self.a.len(),
            });
        }
        check_result(resolved.m, resolved.n)?;
        if resolved.dtype == DType::I4 && self.dtype.is_none() && !fits_i4(&self.a) {
            return Err(RequestError::OperandRange("A"));
        }
        Ok(resolved)
    }
}

/// Whether every value fits the `camp.s4` kernel's 4 bits, [-8, 7].
pub(crate) fn fits_i4(vals: &[i8]) -> bool {
    vals.iter().all(|v| (-8..8).contains(v))
}

/// Elements of the `rows`×`cols` operand `operand`, or
/// [`RequestError::Oversized`] when the product overflows.
fn elements(operand: &'static str, rows: usize, cols: usize) -> Result<usize, RequestError> {
    rows.checked_mul(cols).ok_or(RequestError::Oversized(operand))
}

/// Refuse an `m×n` result whose i32 elements exceed `isize::MAX` bytes:
/// a backend allocates it whole before computing.
fn check_result(m: usize, n: usize) -> Result<(), RequestError> {
    match elements("C", m, n)?.checked_mul(std::mem::size_of::<i32>()) {
        Some(bytes) if bytes <= isize::MAX as usize => Ok(()),
        _ => Err(RequestError::Oversized("C")),
    }
}

/// Builder for [`GemmRequest`]; every setter is `#[must_use]` (the
/// builder is by-value) and [`GemmRequestBuilder::build`] validates
/// instead of panicking.
#[derive(Debug, Default, Clone)]
pub struct GemmRequestBuilder {
    m: Option<usize>,
    n: Option<usize>,
    k: Option<usize>,
    a: Option<Arc<[i8]>>,
    weights: Option<Operand>,
    dtype: Option<DType>,
}

impl GemmRequestBuilder {
    /// Rows of the activation / result.
    #[must_use]
    pub fn m(mut self, m: usize) -> Self {
        self.m = Some(m);
        self
    }

    /// Columns of B / C (required for dense operands; optional
    /// cross-check for handles).
    #[must_use]
    pub fn n(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }

    /// Inner dimension (required for dense operands; optional
    /// cross-check for handles).
    #[must_use]
    pub fn k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Row-major m×k activation.
    #[must_use]
    pub fn activation(mut self, a: impl Into<Arc<[i8]>>) -> Self {
        self.a = Some(a.into());
        self
    }

    /// The B operand (dense weights or a registered handle).
    #[must_use]
    pub fn weights(mut self, weights: impl Into<Operand>) -> Self {
        self.weights = Some(weights.into());
        self
    }

    /// Kernel selection (defaults: I8 for dense operands, the
    /// registration's dtype for handles).
    #[must_use]
    pub fn dtype(mut self, dtype: DType) -> Self {
        self.dtype = Some(dtype);
        self
    }

    /// Validate and build. Dense requests must pin `n` and `k` and have
    /// coherent operand lengths; i4 dense requests are range-checked.
    /// Handle requests defer registration checks to
    /// [`GemmRequest::resolve`].
    pub fn build(self) -> Result<GemmRequest, RequestError> {
        let m = self.m.ok_or(RequestError::MissingField("m"))?;
        let a = self.a.ok_or(RequestError::MissingField("activation"))?;
        let weights = self.weights.ok_or(RequestError::MissingField("weights"))?;
        let i4 = self.dtype == Some(DType::I4);
        if let Operand::Dense(b) = &weights {
            let n = self.n.ok_or(RequestError::MissingField("n"))?;
            let k = self.k.ok_or(RequestError::MissingField("k"))?;
            let a_len = elements("A", m, k)?;
            if a.len() != a_len {
                return Err(RequestError::ShapeMismatch {
                    operand: "A",
                    expected: a_len,
                    got: a.len(),
                });
            }
            let b_len = elements("B", k, n)?;
            if b.len() != b_len {
                return Err(RequestError::ShapeMismatch {
                    operand: "B",
                    expected: b_len,
                    got: b.len(),
                });
            }
            check_result(m, n)?;
            if i4 && !fits_i4(b) {
                return Err(RequestError::OperandRange("B"));
            }
        }
        if i4 && !fits_i4(&a) {
            return Err(RequestError::OperandRange("A"));
        }
        Ok(GemmRequest { m, n: self.n, k: self.k, a, weights, dtype: self.dtype })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::WeightRegistry;

    fn fill(len: usize, seed: i32) -> Vec<i8> {
        (0..len).map(|i| ((i as i32 * seed) % 16 - 8) as i8).collect()
    }

    #[test]
    fn dense_build_checks_both_operand_lengths() {
        let a = fill(4 * 8, 3);
        let b = fill(8 * 6, 5);
        let req = GemmRequest::dense(4, 6, 8, a.clone(), b.clone()).unwrap();
        assert_eq!((req.m(), req.n(), req.k()), (4, Some(6), Some(8)));
        assert_eq!(req.activation(), &a[..]);

        let bad_a = GemmRequest::dense(4, 6, 8, fill(7, 3), b.clone());
        assert_eq!(
            bad_a.unwrap_err(),
            RequestError::ShapeMismatch { operand: "A", expected: 32, got: 7 }
        );
        let bad_b = GemmRequest::dense(4, 6, 8, a, fill(5, 5));
        assert_eq!(
            bad_b.unwrap_err(),
            RequestError::ShapeMismatch { operand: "B", expected: 48, got: 5 }
        );
    }

    #[test]
    fn dense_build_requires_the_full_shape() {
        let err = GemmRequest::builder()
            .m(4)
            .activation(fill(8, 3))
            .weights(Operand::from_dense(fill(4, 5)))
            .build()
            .unwrap_err();
        assert_eq!(err, RequestError::MissingField("n"));
        let err = GemmRequest::builder().build().unwrap_err();
        assert_eq!(err, RequestError::MissingField("m"));
    }

    #[test]
    fn i4_requests_are_range_checked_at_build() {
        let ok = fill(4 * 8, 3); // [-8, 7]
        let out = vec![100i8; 8 * 4];
        let err = GemmRequest::builder()
            .m(4)
            .n(4)
            .k(8)
            .activation(ok.clone())
            .weights(Operand::from_dense(out))
            .dtype(DType::I4)
            .build()
            .unwrap_err();
        assert_eq!(err, RequestError::OperandRange("B"));
        let err = GemmRequest::builder()
            .m(4)
            .n(4)
            .k(8)
            .activation(vec![99i8; 32])
            .weights(Operand::from_dense(fill(32, 5)))
            .dtype(DType::I4)
            .build()
            .unwrap_err();
        assert_eq!(err, RequestError::OperandRange("A"));
    }

    #[test]
    fn handle_requests_resolve_from_the_registration() {
        let mut reg = WeightRegistry::new();
        let h = reg.register(6, 8, &fill(48, 5), DType::I4);
        let snap = reg.snapshot();
        let req = GemmRequest::with_weights(3, fill(3 * 8, 3), h).unwrap();
        let r = req.resolve(&snap).unwrap();
        assert_eq!((r.m, r.n, r.k, r.dtype), (3, 6, 8, DType::I4));
        assert_eq!(r.macs(), 3 * 6 * 8);
        assert!(!r.is_degenerate());

        // a pinned shape that disagrees with the registration errors
        let req =
            GemmRequest::builder().m(3).n(7).activation(fill(24, 3)).weights(h).build().unwrap();
        assert_eq!(req.resolve(&snap).unwrap_err(), RequestError::RegistrationMismatch("n"));
        let req = GemmRequest::builder()
            .m(3)
            .dtype(DType::I8)
            .activation(fill(24, 3))
            .weights(h)
            .build()
            .unwrap();
        assert_eq!(req.resolve(&snap).unwrap_err(), RequestError::RegistrationMismatch("dtype"));

        // an unpinned dtype resolves to the registration's i4: A is
        // range-checked here, since the build could not
        let mut a = fill(3 * 8, 3);
        a[7] = -9;
        let req = GemmRequest::with_weights(3, a, h).unwrap();
        assert_eq!(req.resolve(&snap).unwrap_err(), RequestError::OperandRange("A"));

        // activation length is checked against the registered k
        let req = GemmRequest::with_weights(3, fill(5, 3), h).unwrap();
        assert_eq!(
            req.resolve(&snap).unwrap_err(),
            RequestError::ShapeMismatch { operand: "A", expected: 24, got: 5 }
        );
    }

    #[test]
    fn hostile_shapes_are_refused_instead_of_wrapping() {
        use RequestError::Oversized;
        // m·k and k·n wrap to 0 unchecked, so empty operands would "fit"
        let err = GemmRequest::dense(1 << 62, 1, 4, vec![], vec![1; 4]).unwrap_err();
        assert_eq!(err, Oversized("A"));
        let err = GemmRequest::dense(1, 1 << 62, 4, vec![1; 4], vec![]).unwrap_err();
        assert_eq!(err, Oversized("B"));
        // empty operands at k = 0, but no m×n result can be allocated:
        // m·n overflows, or its i32s pass isize::MAX bytes
        let err = GemmRequest::dense(1 << 40, 1 << 40, 0, vec![], vec![]).unwrap_err();
        assert_eq!(err, Oversized("C"));
        let err = GemmRequest::dense(1 << 61, 1, 0, vec![], vec![]).unwrap_err();
        assert_eq!(err, Oversized("C"));
        let largest = isize::MAX as usize / 4;
        assert!(GemmRequest::dense(largest, 1, 0, vec![], vec![]).is_ok());
        // a handle's k is the registration's: resolve checks m·k
        let mut reg = WeightRegistry::new();
        let h = reg.register(6, 8, &fill(48, 5), DType::I8);
        let req = GemmRequest::with_weights(1 << 61, vec![], h).unwrap();
        assert_eq!(req.resolve(&reg.snapshot()).unwrap_err(), Oversized("A"));
        assert!(Oversized("C").to_string().contains("operand C"));
    }

    #[test]
    fn cloned_requests_share_operand_identity() {
        // a clone shares its operands' buffers instead of copying them
        let req = GemmRequest::dense(2, 2, 4, fill(8, 3), fill(8, 5)).unwrap();
        let clone = req.clone();
        let (Operand::Dense(b1), Operand::Dense(b2)) = (req.weights(), clone.weights()) else {
            panic!("dense operands expected");
        };
        assert_eq!(b1.as_ptr(), b2.as_ptr());
        assert_eq!(req.activation().as_ptr(), clone.activation().as_ptr());
    }

    #[test]
    fn errors_render_for_humans() {
        let e = RequestError::StaleHandle;
        assert!(format!("{e}").contains("stale"));
        let e = RequestError::ShapeMismatch { operand: "B", expected: 4, got: 2 };
        assert!(format!("{e}").contains("B"));
    }
}
