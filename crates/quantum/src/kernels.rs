//! Cache-blocked statevector gate kernels.
//!
//! Every gate the exact simulator executes bottoms out here. The layer
//! has one hard contract, on which the whole determinism story of the
//! repo rests: **for a fixed sequence of [`Kernel1Q`]s, the resulting
//! amplitudes are bitwise identical no matter how the sweeps are blocked
//! or batched.** A single-qubit kernel touches each amplitude pair
//! `(a[i], a[i | 1<<q])` independently, so applying a run of kernels
//! pair-by-pair in one memory sweep (gate fusion, [`apply_run`]) performs
//! exactly the same floating-point operations in exactly the same order
//! per pair as applying each kernel in its own full-array sweep — only
//! the traversal order between independent pairs changes, and IEEE-754
//! results do not depend on it.
//!
//! Kernel classes (see DESIGN.md §13):
//!
//! - [`Kernel1Q::General`]: full 2×2 complex multiply, stride-split into
//!   contiguous pair blocks with a `chunks_exact` inner loop so LLVM can
//!   emit wide f64 lanes;
//! - [`Kernel1Q::Diag`]: diagonal gates (RZ and friends) touch each
//!   amplitude once with a single complex multiply — 4× fewer flops and
//!   half the loads of the general path;
//! - [`apply_cz`]: controlled-Z enumerates only the n/4 basis states with
//!   both operand bits set instead of scanning and testing all n.
//!
//! The naive reference loops survive as `#[doc(hidden)]`
//! `apply_matrix2_reference`/`apply_cz_reference` on
//! [`crate::StateVector`]; `crates/quantum/tests/kernel_equiv.rs` proves
//! the equivalence on every CI run.

use crate::statevector::C64;

/// A 2×2 complex matrix in row-major order: `m[row][col]`.
pub type Mat2 = [[C64; 2]; 2];

/// Amplitude pairs processed per inner iteration of the general kernel.
/// Four complex pairs = 16 f64 values per side, enough for LLVM to fill
/// 256-bit lanes while staying far inside L1 for any stride.
const LANES: usize = 4;

/// The RX(θ) = exp(-iθX/2) matrix, bit-for-bit the one the simulator has
/// always applied.
pub fn mat_rx(theta: f64) -> Mat2 {
    let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    [
        [C64::new(c, 0.0), C64::new(0.0, -s)],
        [C64::new(0.0, -s), C64::new(c, 0.0)],
    ]
}

/// The RY(θ) = exp(-iθY/2) matrix.
pub fn mat_ry(theta: f64) -> Mat2 {
    let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    [
        [C64::new(c, 0.0), C64::new(-s, 0.0)],
        [C64::new(s, 0.0), C64::new(c, 0.0)],
    ]
}

/// The RZ(θ) = exp(-iθZ/2) matrix.
pub fn mat_rz(theta: f64) -> Mat2 {
    let half = theta / 2.0;
    [
        [C64::new(half.cos(), -half.sin()), C64::ZERO],
        [C64::ZERO, C64::new(half.cos(), half.sin())],
    ]
}

/// 2×2 complex matrix product `outer · inner` (apply `inner` first).
///
/// **Analysis only.** Executing a composed matrix performs *different*
/// floating-point operations than executing its factors in sequence, so
/// the execution path never multiplies matrices — fusion happens at the
/// loop level ([`apply_run`]). The fusion-algebra tests use this to check
/// approximate identities like RZ(a)·RZ(b) ≈ RZ(a+b).
pub fn compose(outer: &Mat2, inner: &Mat2) -> Mat2 {
    let mut out = [[C64::ZERO; 2]; 2];
    for (r, row) in out.iter_mut().enumerate() {
        for (c, cell) in row.iter_mut().enumerate() {
            *cell = outer[r][0] * inner[0][c] + outer[r][1] * inner[1][c];
        }
    }
    out
}

fn is_exact_zero(z: C64) -> bool {
    z.re.to_bits() == 0 && z.im.to_bits() == 0
}

fn is_exact_one(z: C64) -> bool {
    z.re.to_bits() == 1.0f64.to_bits() && z.im.to_bits() == 0
}

/// Kernel classes, for dispatch accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelClass {
    /// Diagonal single-qubit kernel.
    Diag,
    /// General 2×2 single-qubit kernel.
    General,
}

/// A classified single-qubit kernel: the unit of execution for both the
/// fused and the unfused path, so toggling fusion can never change which
/// per-element arithmetic runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel1Q {
    /// Diagonal gate: `a0 ← d0·a0`, `a1 ← d1·a1`.
    Diag {
        /// Top-left diagonal element.
        d0: C64,
        /// Bottom-right diagonal element.
        d1: C64,
    },
    /// Arbitrary 2×2 unitary, applied as `m[r][0]·a0 + m[r][1]·a1`.
    General {
        /// The matrix.
        m: Mat2,
    },
}

impl Kernel1Q {
    /// Classifies a matrix. The diagonal class is claimed only when both
    /// off-diagonal entries are bit-exact `+0.0 + 0.0i`: the specialized
    /// kernel drops the zero cross terms, which is observably identical
    /// everywhere except the IEEE sign of exactly-zero results, and the
    /// strict predicate keeps e.g. RX(0) (whose off-diagonal carries a
    /// `-0.0`) on the general path it always took.
    pub fn from_matrix(m: Mat2) -> Self {
        if is_exact_zero(m[0][1]) && is_exact_zero(m[1][0]) {
            Kernel1Q::Diag {
                d0: m[0][0],
                d1: m[1][1],
            }
        } else {
            Kernel1Q::General { m }
        }
    }

    /// Whether this kernel is the bit-exact identity (`1.0 + 0.0i` on the
    /// diagonal, `+0.0 + 0.0i` off it). Deliberately strict: RZ(0) keeps
    /// a `-0.0` in a diagonal phase and is *not* elidable, while RX(-0.0)
    /// classifies to `diag(1, 1)` and is. The fusion planner drops only
    /// kernels this predicate accepts.
    pub fn is_identity(&self) -> bool {
        match self {
            Kernel1Q::Diag { d0, d1 } => is_exact_one(*d0) && is_exact_one(*d1),
            Kernel1Q::General { m } => {
                is_exact_one(m[0][0])
                    && is_exact_one(m[1][1])
                    && is_exact_zero(m[0][1])
                    && is_exact_zero(m[1][0])
            }
        }
    }

    /// The kernel's class.
    pub fn class(&self) -> KernelClass {
        match self {
            Kernel1Q::Diag { .. } => KernelClass::Diag,
            Kernel1Q::General { .. } => KernelClass::General,
        }
    }

    /// The kernel as a matrix (for analysis; see [`compose`]).
    pub fn matrix(&self) -> Mat2 {
        match self {
            Kernel1Q::Diag { d0, d1 } => [[*d0, C64::ZERO], [C64::ZERO, *d1]],
            Kernel1Q::General { m } => *m,
        }
    }

    /// Applies the kernel to one amplitude pair. This expression — not
    /// the sweep that drives it — defines the floating-point behaviour,
    /// and it is shared verbatim by the single-gate sweeps and the fused
    /// run sweep.
    #[inline(always)]
    fn apply_pair(&self, a0: C64, a1: C64) -> (C64, C64) {
        match self {
            Kernel1Q::Diag { d0, d1 } => (*d0 * a0, *d1 * a1),
            Kernel1Q::General { m } => (m[0][0] * a0 + m[0][1] * a1, m[1][0] * a0 + m[1][1] * a1),
        }
    }
}

/// Applies one single-qubit kernel over the full amplitude array.
///
/// # Panics
///
/// Panics (in debug builds) if `1 << q` is not below `amps.len()`.
pub fn apply_kernel(amps: &mut [C64], q: u32, kernel: &Kernel1Q) {
    match kernel {
        Kernel1Q::Diag { d0, d1 } => apply_diag(amps, q, *d0, *d1),
        Kernel1Q::General { m } => apply_general(amps, q, m),
    }
}

/// Diagonal kernel: one complex multiply per amplitude, no cross-pair
/// traffic at all. The two stride-halves are multiplied in place, so the
/// whole sweep is a pair of unit-stride streams LLVM vectorizes freely.
fn apply_diag(amps: &mut [C64], q: u32, d0: C64, d1: C64) {
    let stride = 1usize << q;
    debug_assert!(stride < amps.len(), "qubit {q} out of range");
    for block in amps.chunks_exact_mut(stride << 1) {
        let (lo, hi) = block.split_at_mut(stride);
        for a in lo.iter_mut() {
            *a = d0 * *a;
        }
        for a in hi.iter_mut() {
            *a = d1 * *a;
        }
    }
}

/// General kernel: stride-split pair blocks with a `chunks_exact` inner
/// loop of [`LANES`] pairs, identical per-element arithmetic to the naive
/// reference (`m[r][0]·a0 + m[r][1]·a1`, in that order).
fn apply_general(amps: &mut [C64], q: u32, m: &Mat2) {
    let stride = 1usize << q;
    debug_assert!(stride < amps.len(), "qubit {q} out of range");
    for block in amps.chunks_exact_mut(stride << 1) {
        let (lo, hi) = block.split_at_mut(stride);
        let mut lo_lanes = lo.chunks_exact_mut(LANES);
        let mut hi_lanes = hi.chunks_exact_mut(LANES);
        for (la, ha) in (&mut lo_lanes).zip(&mut hi_lanes) {
            for (a, b) in la.iter_mut().zip(ha.iter_mut()) {
                let (a0, a1) = (*a, *b);
                *a = m[0][0] * a0 + m[0][1] * a1;
                *b = m[1][0] * a0 + m[1][1] * a1;
            }
        }
        for (a, b) in lo_lanes
            .into_remainder()
            .iter_mut()
            .zip(hi_lanes.into_remainder())
        {
            let (a0, a1) = (*a, *b);
            *a = m[0][0] * a0 + m[0][1] * a1;
            *b = m[1][0] * a0 + m[1][1] * a1;
        }
    }
}

/// Applies a fused run of same-qubit kernels in **one** memory sweep:
/// each amplitude pair is loaded once, chased through every kernel of the
/// run with the kernel's own pair update, and stored once. Because pairs are
/// independent and the per-pair arithmetic is shared with the single-gate
/// sweeps, the result is bitwise identical to applying the kernels one
/// full sweep at a time — fusion only removes memory traffic.
pub fn apply_run(amps: &mut [C64], q: u32, kernels: &[Kernel1Q]) {
    if let [kernel] = kernels {
        // A run of one is exactly a single-gate sweep; take the
        // specialized loop (same bits, better codegen).
        return apply_kernel(amps, q, kernel);
    }
    let stride = 1usize << q;
    debug_assert!(stride < amps.len(), "qubit {q} out of range");
    for block in amps.chunks_exact_mut(stride << 1) {
        let (lo, hi) = block.split_at_mut(stride);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (mut a0, mut a1) = (*a, *b);
            for kernel in kernels {
                (a0, a1) = kernel.apply_pair(a0, a1);
            }
            *a = a0;
            *b = a1;
        }
    }
}

/// Controlled-Z kernel: negates exactly the amplitudes with both operand
/// bits set by enumerating them (n/4 iterations) instead of scanning all
/// n basis states and testing masks. Negation is sign-bit flipping, so
/// the result is bitwise identical to the scanning reference.
pub fn apply_cz(amps: &mut [C64], a: u32, b: u32) {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let slo = 1usize << lo;
    let shi = 1usize << hi;
    let n = amps.len();
    debug_assert!(shi < n, "qubit out of range");
    debug_assert_ne!(a, b, "CZ operands must differ");
    let mut base_hi = shi;
    while base_hi < n {
        let mut base_lo = base_hi + slo;
        while base_lo < base_hi + shi {
            for amp in &mut amps[base_lo..base_lo + slo] {
                *amp = -*amp;
            }
            base_lo += slo << 1;
        }
        base_hi += shi << 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(z: C64) -> (u64, u64) {
        (z.re.to_bits(), z.im.to_bits())
    }

    /// A deterministic, non-trivial amplitude soup (not normalised; the
    /// kernels don't care).
    fn soup(n: usize) -> Vec<C64> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.37).sin();
                let y = (i as f64 * 0.91).cos() - 0.5;
                C64::new(x, y)
            })
            .collect()
    }

    fn naive_1q(amps: &mut [C64], q: u32, m: &Mat2) {
        let stride = 1usize << q;
        let n = amps.len();
        let mut base = 0;
        while base < n {
            for i in base..base + stride {
                let a0 = amps[i];
                let a1 = amps[i + stride];
                amps[i] = m[0][0] * a0 + m[0][1] * a1;
                amps[i + stride] = m[1][0] * a0 + m[1][1] * a1;
            }
            base += stride << 1;
        }
    }

    #[test]
    fn general_kernel_is_bitwise_identical_to_naive_loop() {
        for q in 0..6u32 {
            let m = mat_ry(1.234 + f64::from(q));
            let mut a = soup(64);
            let mut b = a.clone();
            naive_1q(&mut a, q, &m);
            apply_general(&mut b, q, &m);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(bits(*x), bits(*y), "qubit {q}");
            }
        }
    }

    #[test]
    fn classify_routes_rz_to_diag_and_rx_ry_to_general() {
        assert_eq!(
            Kernel1Q::from_matrix(mat_rz(0.7)).class(),
            KernelClass::Diag
        );
        assert_eq!(
            Kernel1Q::from_matrix(mat_rx(0.7)).class(),
            KernelClass::General
        );
        assert_eq!(
            Kernel1Q::from_matrix(mat_ry(0.7)).class(),
            KernelClass::General
        );
        // RX(0): off-diagonal is (0, -0.0) — NOT exact zero, stays general.
        assert_eq!(
            Kernel1Q::from_matrix(mat_rx(0.0)).class(),
            KernelClass::General
        );
    }

    #[test]
    fn identity_predicate_is_strictly_bitwise() {
        let identity = [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]];
        assert!(Kernel1Q::from_matrix(identity).is_identity());
        // RZ(0) carries a -0.0 phase component: not elidable.
        assert!(!Kernel1Q::from_matrix(mat_rz(0.0)).is_identity());
        // RY(-0.0) keeps a -0.0 in its lower-left entry: not elidable.
        assert!(!Kernel1Q::from_matrix(mat_ry(-0.0)).is_identity());
        // RX(-0.0) really is diag(1, 1) bit-for-bit: elidable.
        assert!(Kernel1Q::from_matrix(mat_rx(-0.0)).is_identity());
    }

    #[test]
    fn fused_run_matches_sequential_sweeps_bitwise() {
        let kernels = [
            Kernel1Q::from_matrix(mat_rz(0.4)),
            Kernel1Q::from_matrix(mat_rx(1.1)),
            Kernel1Q::from_matrix(mat_ry(-2.6)),
            Kernel1Q::from_matrix(mat_rz(0.9)),
        ];
        for q in 0..5u32 {
            let mut fused = soup(32);
            let mut seq = fused.clone();
            apply_run(&mut fused, q, &kernels);
            for k in &kernels {
                apply_kernel(&mut seq, q, k);
            }
            for (x, y) in fused.iter().zip(&seq) {
                assert_eq!(bits(*x), bits(*y), "qubit {q}");
            }
        }
    }

    #[test]
    fn cz_kernel_matches_scanning_reference_bitwise() {
        for (a, b) in [(0u32, 1u32), (1, 0), (0, 3), (2, 4), (4, 1)] {
            let mut fast = soup(32);
            let mut slow = fast.clone();
            apply_cz(&mut fast, a, b);
            let (ma, mb) = (1usize << a, 1usize << b);
            for (i, amp) in slow.iter_mut().enumerate() {
                if i & ma != 0 && i & mb != 0 {
                    *amp = -*amp;
                }
            }
            for (x, y) in fast.iter().zip(&slow) {
                assert_eq!(bits(*x), bits(*y), "cz({a},{b})");
            }
        }
    }

    #[test]
    fn compose_matches_rz_angle_addition_approximately() {
        let (a, b) = (0.73, -1.31);
        let composed = compose(&mat_rz(b), &mat_rz(a));
        let direct = mat_rz(a + b);
        for r in 0..2 {
            for c in 0..2 {
                assert!((composed[r][c].re - direct[r][c].re).abs() < 1e-12);
                assert!((composed[r][c].im - direct[r][c].im).abs() < 1e-12);
            }
        }
    }
}
