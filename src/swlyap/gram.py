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

from .errors import (
    ContractViolation,
    DegenerateInputError,
    EstimationError,
    Record,
    StructuralError,
    UnstableTailError,
    UnsupportedOperation,
    json_number,
)
from .semigroups import MatrixMode, _scaling, _squared, expm
from .state_space import euclidean_state, real_array
from .switching import SignalFamily, SwitchedSystem, SwitchingSignal, enumerate_family

__all__ = [
    "GramOperator",
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
_BLOCK_STEP_NORM = 4.0  # largest eta of A h exponentiated in one block step
_MAX_DOUBLINGS = 128  # doublings of the infinite-horizon energy before giving up


def _square(M, name: str) -> np.ndarray:
    """``M`` as a nonempty square float matrix with finite entries.  A bare
    number is refused, as ``matrix_mode`` refuses it, not read as 1x1."""
    import numpy as np
    need = f"{name} must be a nonempty square matrix of numbers"
    M = real_array(M, need)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise StructuralError(need)
    if not np.isfinite(M).all():
        raise StructuralError(f"{name} must have finite entries")
    return M


def _energy(A: np.ndarray, Q: np.ndarray, d: float) -> np.ndarray:
    """integral(0, d) e^{A' t} Q e^{A t} dt, for d > 0 finite or infinite.

    Exponentiates the block [[-A', Q], [0, A]] * h and combines the
    off-diagonal block with e^{A h} (Van Loan, IEEE TAC 1978).  The -A' block
    grows like e^{eta h}, and the rounding error with its square, so the step
    keeps ``_scaling``'s eta of A h within _BLOCK_STEP_NORM and the integral
    is doubled from it: G(2h) = G(h) + Phi(h)' G(h) Phi(h), Phi(2h) squared by
    ``_squared``.  A finite d is reached in exactly k doublings from h = d / 2^k;
    d = inf doubles from a power-of-two step until a doubling leaves G unchanged.
    """
    import numpy as np
    n = A.shape[0]
    settle = math.isinf(d)
    _, eta, diag = _scaling(A, _BLOCK_STEP_NORM if settle else _BLOCK_STEP_NORM / d)
    reach = eta if settle else eta * d
    if not math.isfinite(reach):
        raise EstimationError(f"eta(A) = {eta:.3g} over d = {d} leaves no finite step count")
    if settle:
        h = 2.0 ** math.floor(math.log2(_BLOCK_STEP_NORM / eta))
        k = _MAX_DOUBLINGS
    else:
        k = math.ceil(math.log2(reach / _BLOCK_STEP_NORM)) if reach > _BLOCK_STEP_NORM else 0
        h = d / 2.0**k
    E = expm(np.block([[-A.T, Q], [np.zeros_like(A), A]]) * h)
    Phi, G = E[n:, n:], E[n:, n:].T @ E[:n, n:]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for _ in range(k):
            G, prev = G + Phi.T @ G @ Phi, G
            if settle and np.array_equal(G, prev):
                break
            Phi = _squared(Phi, diag, h := 2.0 * h)
        else:
            if settle:
                raise EstimationError(
                    f"stationary energy did not settle in {_MAX_DOUBLINGS} doublings")
    if not np.isfinite(G).all():
        raise EstimationError(f"energy over a dwell of {d} overflows")
    return G


def lyapunov_solve(A, Q) -> np.ndarray:
    """Solve A' P + P A = -Q for symmetric P.

    Requires A Hurwitz; the result is the stationary energy operator
    integral(0, inf) e^{A' t} Q e^{A t} dt, computed by the same doubling as
    the finite segments and corrected once by the solution for its
    residual.  The final residual is checked to 1e-10 (||A|| ||P|| + ||Q||) in
    Frobenius norms: its rounding alone scales with ||A|| ||P||.
    """
    import numpy as np
    A, Q = _square(A, "A"), _square(Q, "Q")
    if A.shape != Q.shape:
        raise StructuralError("A and Q must be square matrices of the same size")
    abscissa = np.linalg.eigvals(A).real.max()
    if abscissa >= -1e-12:
        raise UnstableTailError(f"matrix is not Hurwitz (max real eigenvalue {abscissa:.3e})")
    P = _energy(A, Q, math.inf)
    P = 0.5 * (P + P.T)
    # One correction, the same integral of the residual: the doubling's
    # rounding grows with the transient of a non-normal A, and the
    # correction's is relative to the residual, which is small.
    P = P + _energy(A, A.T @ P + P @ A + Q, math.inf)
    P = 0.5 * (P + P.T)
    residual = np.linalg.norm(A.T @ P + P @ A + Q)
    scale = np.linalg.norm(A) * np.linalg.norm(P) + np.linalg.norm(Q)
    if not residual <= 1e-10 * max(scale, 1e-30) < math.inf:  # NaN or overflow refuses
        raise EstimationError(f"Lyapunov residual too large: {residual:.3e}")
    return P


def segment_energy(A, d: float) -> np.ndarray:
    """Finite-segment energy integral(0, d) e^{A' t} e^{A t} dt."""
    d = json_number(d, "d")
    if not (d > 0 and math.isfinite(d)):
        raise ContractViolation("segment length must be positive and finite")
    import numpy as np
    A = _square(A, "A")
    G = _energy(A, np.eye(A.shape[0]), d)
    return 0.5 * G + 0.5 * G.T  # G + G.T may overflow where G does not


class GramOperator(Record):
    """Symmetric PSD operator whose quadratic form is a signal's trajectory energy.

    Checks that B is square and finite with ||B||_2 finite, then, with s = max(1, ||B||_2),
    that ||B - B'||_2 <= 1e-12 s unless B equals B' exactly (so every ``_Assembler.gram``
    operator, 0.5 (B + B') by construction, skips that norm) and eigvalsh(B) >= -1e-10 s."""

    B: np.ndarray
    source_signal: SwitchingSignal

    def __post_init__(self):
        import numpy as np
        B = _square(self.B, "Gram operator")
        object.__setattr__(self, "B", B)
        scale = max(1.0, float(np.linalg.norm(B, 2)))
        if not math.isfinite(scale):
            raise StructuralError("Gram operator must have a finite norm")
        if not np.array_equal(B, B.T):
            with np.errstate(over="ignore", invalid="ignore"):  # B - B' may overflow: NaN refuses
                if not np.linalg.norm(B - B.T, 2) <= 1e-12 * scale:
                    raise StructuralError("Gram operator must be symmetric")
        if not float(np.min(np.linalg.eigvalsh(B))) >= -1e-10 * scale:  # NaN refuses
            raise StructuralError("Gram operator must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.B.shape[0]

    def quad(self, x: np.ndarray) -> float:
        return float(x @ self.B @ x)

    def __eq__(self, other):  # B is an array, so the record stays unhashable
        import numpy as np
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.source_signal == other.source_signal and np.array_equal(self.B, other.B)

    def to_json(self) -> dict:
        return {"B": self.B.tolist(), "source_signal": self.source_signal.to_json()}


def _mode_matrix(mode, dim: int) -> np.ndarray:
    if isinstance(mode, MatrixMode):
        return mode.matrix
    import numpy as np
    return -mode.mu * np.eye(dim)  # a group mode: a system with a matrix mode holds no other kind


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
        import numpy as np
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
            import numpy as np
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


def candidates_from_family(sys: SwitchedSystem, fam: SignalFamily) -> tuple:
    """Gram operators of every family signal, in enumeration order, sharing
    segments, tails and prefixes across signals."""
    return tuple(map(_Assembler(sys).gram, enumerate_family(fam)))


def _state(cands: tuple, x) -> np.ndarray:
    """``x``, a state or a direction, checked against a nonempty candidate set."""
    if not cands:
        raise StructuralError("candidate set must be nonempty")
    x = euclidean_state(x)
    if x.shape != (cands[0].dim,):
        raise StructuralError(f"vector of length {x.size}, candidates of dimension {cands[0].dim}")
    return x


def v_max(cands: tuple, x: np.ndarray) -> float:
    """max over candidates of the quadratic form <x, Bx>."""
    x = _state(cands, x)
    return max(c.quad(x) for c in cands)


class ArgmaxSet(Record):
    """Indices of the candidates attaining the max, up to a relative tolerance."""

    indices: tuple
    tol: float

    def __post_init__(self):
        if not self.indices:
            raise StructuralError("argmax set cannot be empty")


def argmax_set(cands: tuple, x: np.ndarray, tol: float = DEFAULT_ARGMAX_TOL) -> ArgmaxSet:
    x = _state(cands, x)
    if not 0.0 <= tol < math.inf:  # also refuses NaN
        raise ContractViolation("tol must be finite and nonnegative")
    import numpy as np
    if float(np.linalg.norm(x)) == 0.0:
        raise DegenerateInputError("all candidates tie at x = 0; argmax set undefined")
    vals = [c.quad(x) for c in cands]
    vm = max(vals)
    cut = vm - tol * max(1.0, vm)
    return ArgmaxSet(tuple(i for i, v in enumerate(vals) if v >= cut), tol)


def directional_derivative(
    cands: tuple, x: np.ndarray, psi: np.ndarray, tol: float = DEFAULT_ARGMAX_TOL
) -> float:
    """One-sided directional derivative of v_max at x along psi.

    Equals the max over tied maximizers of 2 <psi, B x>; at smooth points
    (singleton argmax) this is the classical quadratic-form pairing.
    """
    S = argmax_set(cands, x, tol)
    psi = _state(cands, psi)
    return max(2.0 * float(psi @ (cands[i].B @ x)) for i in S.indices)
