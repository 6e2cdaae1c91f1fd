"""Finite-dimensional Gram operators of switching signals.

For a signal whose tail mode is Hurwitz, the trajectory energy is the
quadratic form of the symmetric operator

    B = sum_k Phi_k' E_k Phi_k + Phi_tail' P Phi_tail

where E_k is the finite-segment energy integral of segment k, Phi_k the
state transition up to the segment, and P the stationary tail solution.
A finite set of such operators is the computable surrogate for the compact
candidate set behind the worst-case functional; the functional

    v_max(x) = max_B <x, Bx>

is then directionally differentiable with derivative
max over tied maximizers of 2 <psi, B x>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolation,
    DegenerateInputError,
    EstimationError,
    StructuralError,
    UnstableTailError,
    UnsupportedOperation,
)
from .semigroups import DiagonalGroupMode, MatrixMode, expm
from .state_space import euclidean_state
from .switching import SignalFamily, SwitchedSystem, SwitchingSignal, enumerate_family

__all__ = [
    "GramOperator",
    "CandidateSet",
    "lyapunov_solve",
    "segment_energy",
    "gram_of_signal",
    "candidates_from_family",
    "v_max",
    "argmax_set",
    "ArgmaxSet",
    "directional_derivative",
]

DEFAULT_ARGMAX_TOL = 1e-9
_BLOCK_STEP_NORM = 4.0  # largest ||A||_1 h exponentiated in one block step
_MAX_DOUBLINGS = 128  # doublings of the infinite-horizon energy before giving up


def _square(M, name: str) -> np.ndarray:
    """``M`` as a nonempty square float matrix with finite entries."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise StructuralError(f"{name} must be a nonempty square matrix")
    if not np.isfinite(M).all():
        raise StructuralError(f"{name} must have finite entries")
    return M


def _energy(A: np.ndarray, Q: np.ndarray, d: float) -> np.ndarray:
    """integral(0, d) e^{A' t} Q e^{A t} dt, for d > 0 finite or infinite.

    Exponentiates the block [[-A', Q], [0, A]] * h and combines the
    off-diagonal block with e^{A h} (Van Loan, IEEE TAC 1978).  The -A' block
    grows like e^{||A|| h}, and the rounding error with its square, so the
    block step keeps ||A||_1 h within _BLOCK_STEP_NORM and the integral is
    doubled from it: G(2h) = G(h) + Phi(h)' G(h) Phi(h), Phi(2h) = Phi(h)^2.
    A finite d is reached in exactly k doublings from h = d / 2^k; d = inf
    doubles from a power-of-two step until a doubling leaves G unchanged.
    """
    n = A.shape[0]
    # ||A||_1, by column sums in plain Python: on the small matrices
    # exponentiated here numpy's per-call overhead would cost more
    norm = max(sum(map(abs, col)) for col in A.T.tolist())
    settle = math.isinf(d)
    if settle:
        h = 2.0 ** math.floor(math.log2(_BLOCK_STEP_NORM / norm))
        k = _MAX_DOUBLINGS
    else:
        reach = norm * d
        k = math.ceil(math.log2(reach / _BLOCK_STEP_NORM)) if reach > _BLOCK_STEP_NORM else 0
        h = d / 2.0**k
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -A.T
    block[:n, n:] = Q
    block[n:, n:] = A
    E = expm(block * h)
    Phi = E[n:, n:]
    G = Phi.T @ E[:n, n:]
    for _ in range(k):
        G, prev = G + Phi.T @ G @ Phi, G
        if settle and np.array_equal(G, prev):
            return G
        Phi = Phi @ Phi
    if settle:
        raise EstimationError(f"stationary energy did not settle in {_MAX_DOUBLINGS} doublings")
    return G


def lyapunov_solve(A, Q) -> np.ndarray:
    """Solve A' P + P A = -Q for symmetric P.

    Requires A Hurwitz; the result is the stationary energy operator
    integral(0, inf) e^{A' t} Q e^{A t} dt, computed by the same doubling as
    the finite segments and corrected once by the solution for its
    residual.  The final residual is checked to 1e-10 ||Q||.
    """
    A, Q = _square(A, "A"), _square(Q, "Q")
    if A.shape != Q.shape:
        raise StructuralError("A and Q must be square matrices of the same size")
    eigs = np.linalg.eigvals(A)
    if np.max(eigs.real) >= -1e-12:
        raise UnstableTailError(
            f"matrix is not Hurwitz (max real eigenvalue {np.max(eigs.real):.3e})"
        )
    P = _energy(A, Q, math.inf)
    P = 0.5 * (P + P.T)
    # One correction, the same integral of the residual: the doubling's
    # rounding grows with the transient of a non-normal A, and the
    # correction's is relative to the residual, which is small.
    P = P + _energy(A, A.T @ P + P @ A + Q, math.inf)
    P = 0.5 * (P + P.T)
    residual = np.linalg.norm(A.T @ P + P @ A + Q)
    if residual > 1e-10 * max(np.linalg.norm(Q), 1e-30):
        raise EstimationError(f"Lyapunov residual too large: {residual:.3e}")
    return P


def segment_energy(A, d: float) -> np.ndarray:
    """Finite-segment energy integral(0, d) e^{A' t} e^{A t} dt."""
    if not (d > 0 and math.isfinite(d)):
        raise ContractViolation("segment length must be positive and finite")
    A = _square(A, "A")
    G = _energy(A, np.eye(A.shape[0]), d)
    return 0.5 * (G + G.T)


@dataclass(frozen=True)
class GramOperator:
    """Symmetric PSD operator whose quadratic form is a signal's trajectory energy."""

    B: np.ndarray
    source_signal: SwitchingSignal

    def __post_init__(self):
        B = _square(self.B, "Gram operator")
        object.__setattr__(self, "B", B)
        scale = max(1.0, float(np.linalg.norm(B, 2)))
        if np.linalg.norm(B - B.T, 2) > 1e-12 * scale:
            raise StructuralError("Gram operator must be symmetric")
        if float(np.min(np.linalg.eigvalsh(B))) < -1e-10 * scale:
            raise StructuralError("Gram operator must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.B.shape[0]

    def quad(self, x: np.ndarray) -> float:
        return float(x @ self.B @ x)

    def to_json(self) -> dict:
        return {"B": self.B.tolist(), "source_signal": self.source_signal.to_json()}


CandidateSet = tuple  # ordered tuple of GramOperator, shared dimension


def _mode_matrix(mode, dim: int) -> np.ndarray:
    if isinstance(mode, MatrixMode):
        return mode.matrix
    if isinstance(mode, DiagonalGroupMode):
        return -mode.mu * np.eye(dim)
    raise UnsupportedOperation("Gram operators are defined for coordinate systems only")


def _system_dim(sys: SwitchedSystem) -> int:
    for m in sys.modes:
        if isinstance(m, MatrixMode):
            return m.dim
    raise UnsupportedOperation("Gram operators need at least one matrix mode")


class _Assembler:
    """Gram operators of one system's signals, each shared piece computed once.

    Three memos, fresh for each assembler: ``(E, Phi)`` of one segment per
    ``(mode_id, dwell)``, the tail solution ``P`` per tail mode, and the
    partial sums ``(B, Phi)`` per segment prefix, kept as a trie that a signal
    walks and extends iteratively.  Every entry is a new array that is never
    written to.  A prefix's ``(B, Phi)`` are formed by the same operations, in
    the same order, as the plain loop over one signal from t = 0
    (``B + Phi' E Phi``, then ``F Phi``), so the operators are bit-identical.
    """

    def __init__(self, sys: SwitchedSystem):
        self.sys = sys
        self.dim = dim = _system_dim(sys)
        self.steps = {}
        self.tails = {}
        self.root = (np.zeros((dim, dim)), np.eye(dim), {})  # (B, Phi, children)

    def _matrix(self, mode_id) -> np.ndarray:
        return _mode_matrix(self.sys.mode(mode_id), self.dim)

    def _step(self, seg) -> tuple:
        if seg not in self.steps:
            mode_id, dwell = seg
            A = self._matrix(mode_id)
            self.steps[seg] = (segment_energy(A, dwell), expm(A * dwell))
        return self.steps[seg]

    def _tail(self, mode_id) -> np.ndarray:
        if mode_id not in self.tails:
            A = self._matrix(mode_id)
            try:
                self.tails[mode_id] = lyapunov_solve(A, np.eye(self.dim))
            except UnstableTailError as exc:
                raise UnstableTailError(f"tail mode {mode_id} is not Hurwitz: {exc}") from exc
        return self.tails[mode_id]

    def gram(self, sig: SwitchingSignal) -> GramOperator:
        node = self.root
        for seg in sig.segments:
            B, Phi, children = node
            if seg not in children:
                E, F = self._step(seg)
                children[seg] = (B + Phi.T @ E @ Phi, F @ Phi, {})
            node = children[seg]
        B, Phi, _ = node
        B = B + Phi.T @ self._tail(sig.tail_mode) @ Phi
        return GramOperator(0.5 * (B + B.T), sig)


def gram_of_signal(sys: SwitchedSystem, sig: SwitchingSignal) -> GramOperator:
    """Assemble the trajectory-energy operator of one signal.

    The tail mode must be Hurwitz; otherwise the infinite-horizon energy does
    not exist and the signal is rejected rather than silently truncated.
    """
    return _Assembler(sys).gram(sig)


def candidates_from_family(sys: SwitchedSystem, fam: SignalFamily | None = None) -> CandidateSet:
    """Gram operators of every family signal, in enumeration order, sharing
    segments, tails and prefixes across signals."""
    if fam is None:
        fam = SignalFamily.default(sys.n_modes)
    return tuple(map(_Assembler(sys).gram, enumerate_family(fam)))


def _state(cands: CandidateSet, x) -> np.ndarray:
    """``x``, a state or a direction, checked against a nonempty candidate set."""
    if not cands:
        raise StructuralError("candidate set must be nonempty")
    x = euclidean_state(x)
    if x.shape != (cands[0].dim,):
        raise StructuralError(f"vector of length {x.size}, candidates of dimension {cands[0].dim}")
    return x


def v_max(cands: CandidateSet, x: np.ndarray) -> float:
    """max over candidates of the quadratic form <x, Bx>."""
    x = _state(cands, x)
    return max(c.quad(x) for c in cands)


@dataclass(frozen=True)
class ArgmaxSet:
    """Indices of the candidates attaining the max, up to a relative tolerance."""

    indices: tuple
    tol: float

    def __post_init__(self):
        if not self.indices:
            raise StructuralError("argmax set cannot be empty")


def argmax_set(cands: CandidateSet, x: np.ndarray, tol: float = DEFAULT_ARGMAX_TOL) -> ArgmaxSet:
    x = _state(cands, x)
    if not 0.0 <= tol < math.inf:  # also refuses NaN
        raise ContractViolation("tol must be finite and nonnegative")
    if float(np.linalg.norm(x)) == 0.0:
        raise DegenerateInputError("all candidates tie at x = 0; argmax set undefined")
    vals = [c.quad(x) for c in cands]
    vm = max(vals)
    cut = vm - tol * max(1.0, vm)
    return ArgmaxSet(tuple(i for i, v in enumerate(vals) if v >= cut), tol)


def directional_derivative(
    cands: CandidateSet, x: np.ndarray, psi: np.ndarray, tol: float = DEFAULT_ARGMAX_TOL
) -> float:
    """One-sided directional derivative of v_max at x along psi.

    Equals the max over tied maximizers of 2 <psi, B x>; at smooth points
    (singleton argmax) this is the classical quadratic-form pairing.
    """
    S = argmax_set(cands, x, tol)
    psi = _state(cands, psi)
    return max(2.0 * float(psi @ (cands[i].B @ x)) for i in S.indices)
