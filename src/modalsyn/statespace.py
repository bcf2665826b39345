"""Continuous-time state-space numerics.

Foundational operations used by every other module: interconnection,
frequency response, stability tests, the H-infinity norm, filter Riccati
solving and fixed-step time simulation.  All functions are pure and operate
on immutable inputs, so they are safe to call concurrently; a compiled
:class:`Interconnection` keeps a workspace between its closes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la


class ModelError(ValueError):
    """Raised for inconsistent model construction (dimensions, non-finite data)."""


class NumericError(RuntimeError):
    """Raised when a numerical routine cannot produce a certified result."""


def _as_matrix(x):
    return np.atleast_2d(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class StateSpaceModel:
    """LTI system x' = Ax + Bu, y = Cx + Du.

    Empty-state systems (pure gains) are allowed: pass ``A`` with shape
    (0, 0) and ``B``/``C`` with conformable zero dimensions.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        D = np.atleast_2d(np.asarray(self.D, dtype=float))
        if A.size == 0:
            A = A.reshape(0, 0)
            B = B.reshape(0, B.shape[1] if B.size else D.shape[1])
            C = C.reshape(C.shape[0] if C.size else D.shape[0], 0)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ModelError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ModelError(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise ModelError(f"C has {C.shape[1]} columns, expected {n}")
        if D.shape != (C.shape[0], B.shape[1]):
            raise ModelError(f"D shape {D.shape} != ({C.shape[0]}, {B.shape[1]})")
        for name, mat in (("A", A), ("B", B), ("C", C), ("D", D)):
            if mat.size and not np.all(np.isfinite(mat)):
                raise ModelError(f"non-finite entries in {name}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @classmethod
    def _built(cls, A, B, C, D):
        """Model from conformable 2-D float arrays that a formula of this
        package produced: of the constructor's checks only finiteness runs."""
        if not np.isfinite(np.concatenate((A, B, C, D), axis=None)).all():
            for name, mat in (("A", A), ("B", B), ("C", C), ("D", D)):
                if not np.isfinite(mat).all():
                    raise ModelError(f"non-finite entries in {name}")
        g = object.__new__(cls)
        for name, mat in (("A", A), ("B", B), ("C", C), ("D", D)):
            object.__setattr__(g, name, mat)
        return g

    @property
    def n_states(self):
        return self.A.shape[0]

    @property
    def n_inputs(self):
        return self.B.shape[1]

    @property
    def n_outputs(self):
        return self.C.shape[0]

    def poles(self):
        """Eigenvalues of A (a real array when every one is real)."""
        if self.n_states == 0:
            return np.zeros(0, dtype=complex)
        return np.linalg.eigvals(self.A)

    def transfer_at(self, s):
        """Transfer matrix C (sI - A)^{-1} B + D at a single complex point;
        raises :class:`NumericError` on or next to a pole."""
        return next(_responses(self, [s]))[0]

    def select_inputs(self, idx):
        idx = list(idx)
        return StateSpaceModel(self.A, self.B[:, idx], self.C, self.D[:, idx])


# rows per block in ``simulate`` and ``FrequencyResponse.to_csv``
_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class FrequencyResponse:
    """Sampled transfer matrix on an ascending frequency grid in Hz."""

    freqs_hz: np.ndarray
    values: np.ndarray  # (n_freq, n_y, n_u) complex

    def __post_init__(self):
        f = np.asarray(self.freqs_hz, dtype=float).ravel()
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 3 or v.shape[0] != f.size:
            raise ModelError("values must be (n_freq, n_y, n_u) with one matrix per grid point")
        if f.size > 1 and not np.all(np.diff(f) > 0):
            raise ModelError("frequency grid must be strictly ascending")
        object.__setattr__(self, "freqs_hz", f)
        object.__setattr__(self, "values", v)

    def to_csv(self, path):
        """Write one row per grid point and channel:
        ``freq_hz,out,in,re,im,mag_db,phase_deg``, numbers as ``%.12g``.

        Magnitude, dB and phase are evaluated as arrays over blocks of whole
        grid points, at most ``_CHUNK_ROWS`` rows unless one point has more
        channels.  Each block's frequencies and each channel's ``out,in``
        prefix are formatted once and joined into the block's row template,
        which formats the four values of every row at once; the text is the
        same as formatting every entry on its own (``np.hypot`` is the scalar
        ``abs`` of a complex number, where a vectorized ``np.abs`` may differ
        in the last bit).
        """
        n_f, n_y, n_u = self.values.shape
        cells = [f"{o},{i},%.12g,%.12g,%.12g,%.12g\n"
                 for o in range(n_y) for i in range(n_u)]
        step = max(1, _CHUNK_ROWS // max(1, n_y * n_u))
        with open(path, "w") as fh:
            fh.write("freq_hz,out,in,re,im,mag_db,phase_deg\n")
            for k in range(0, n_f, step):
                f = self.freqs_hz[k:k + step].tolist()
                v = self.values[k:k + step].reshape(len(f), n_y * n_u)
                mag = np.hypot(v.real, v.imag)
                with np.errstate(divide="ignore"):
                    mag_db = np.where(mag > 0, 20 * np.log10(mag), -np.inf)
                table = np.stack((v.real, v.imag, mag_db,
                                  np.degrees(np.angle(v))), axis=-1)
                heads = ["%.12g," % x for x in f]
                rows = "".join([head + cell for head in heads for cell in cells])
                fh.write(rows % tuple(table.ravel().tolist()))


# ---------------------------------------------------------------------------
# rational diagonal filters
# ---------------------------------------------------------------------------

def _normalized_section(num, den):
    """Feed-through, denominator tail and reversed strictly proper numerator
    of a proper section, as Python floats: the trimming, padding and
    division of the controllable-canonical realization of one section."""
    num, den = (np.asarray(p, dtype=float).ravel().tolist() for p in (num, den))
    for p in (num, den):
        while p and p[0] == 0:
            del p[0]
    if not den:
        raise ModelError("section denominator must have a nonzero leading coefficient")
    if len(num) > len(den):
        raise ModelError("section is not proper (numerator degree exceeds denominator)")
    num = [c / den[0] for c in [0.0] * (len(den) - len(num)) + num]
    tail = [c / den[0] for c in den[1:]]
    d = num[0]
    return d, tail, [b - d * a for b, a in zip(num[1:], tail)][::-1]


def diagonal_ss(channels) -> StateSpaceModel:
    """Realization of a diagonal whose ``channels[i]`` is a cascade of proper
    ``(num, den)`` sections, the twin of :func:`diagonal_response`.

    Byte for byte the cascade of ``from_tf`` and ``series`` sections in
    ``tests/reference.py``: every section takes its controllable-canonical
    place, and an entry that ``series`` forms as a matrix product is written
    as ``0.0 + a * b``, the value the product takes (a negative zero turns
    positive).
    """
    sections = [[_normalized_section(num, den) for num, den in chan]
                for chan in channels]
    n = sum(len(tail) for chan in sections for _, tail, _ in chan)
    p = len(sections)
    A, B, C, D = (np.zeros((n, n)), np.zeros((n, p)), np.zeros((p, n)),
                  np.zeros((p, p)))
    x = 0
    for i, chan in enumerate(sections):
        # the channel's output map and feed-through so far; d is 1.0 or a
        # sum 0.0 + a * b, never -0.0, so the product 1.0 * d is d itself
        x0, c, d = x, [], 1.0
        for d_k, tail, c_k in chan:
            if tail:
                last = x + len(tail) - 1
                for k in range(x, last):
                    A[k, k + 1] = 1.0
                A[last, x0:x] = [0.0 + v for v in c]
                A[last, x:last + 1] = [-a for a in reversed(tail)]
                B[last, i] = d
                x = last + 1
            c = [0.0 + d_k * v for v in c] + c_k
            d = 0.0 + d_k * d
        C[i, x0:x] = c
        D[i, i] = d
    return StateSpaceModel._built(A, B, C, D)


def diagonal_response(channels, s_values):
    """Values at ``s_values`` of a diagonal whose ``channels[i]`` is a list
    of ``(num, den)`` sections, shape (len(channels), len(s_values)); the
    sections need not be wrapped in a :class:`RationalDiagonalFilter`."""
    s = np.asarray(s_values, dtype=complex).ravel()
    out = np.ones((len(channels), s.size), dtype=complex)
    for i, sections in enumerate(channels):
        for num, den in sections:
            out[i] *= np.polyval(num, s) / np.polyval(den, s)
    return out


@dataclass(frozen=True)
class RationalDiagonalFilter:
    """Diagonal transfer matrix, each channel a cascade of rational sections.

    ``channels[i]`` is a list of ``(num, den)`` coefficient pairs in
    descending powers of s.  Every section must be proper.
    """

    channels: tuple

    def __post_init__(self):
        chans = tuple(tuple((np.atleast_1d(np.asarray(num, dtype=float)),
                             np.atleast_1d(np.asarray(den, dtype=float)))
                            for num, den in sections)
                      for sections in self.channels)
        for num, den in (sec for sections in chans for sec in sections):
            _normalized_section(num, den)   # refuses a section that is not proper
        object.__setattr__(self, "channels", chans)

    @classmethod
    def identity(cls, n):
        return cls(tuple([(np.array([1.0]), np.array([1.0]))] for _ in range(n)))

    def to_ss(self):
        """Block-diagonal state-space realization of the full filter."""
        return diagonal_ss(self.channels)


# ---------------------------------------------------------------------------
# interconnection
# ---------------------------------------------------------------------------

def _block_diag(*mats) -> np.ndarray:
    """Block-diagonal stack of 2-D float arrays: zeros with each array copied
    into its slice (the same result as ``scipy.linalg.block_diag``)."""
    out = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)))
    r = c = 0
    for m in mats:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


def _stacked(systems):
    """Block-diagonal A, B, C, D of ``systems``."""
    return tuple(_block_diag(*[getattr(g, m) for g in systems]) for m in "ABCD")


def lmul(M, g: StateSpaceModel) -> StateSpaceModel:
    """Static output transformation y' = M y."""
    M = _as_matrix(M)
    if M.shape[1] != g.n_outputs:
        raise ModelError("lmul: matrix columns must match system outputs")
    return StateSpaceModel._built(g.A, g.B, M @ g.C, M @ g.D)


def rmul(g: StateSpaceModel, M) -> StateSpaceModel:
    """Static input transformation u = M u'."""
    M = _as_matrix(M)
    if M.shape[0] != g.n_inputs:
        raise ModelError("rmul: matrix rows must match system inputs")
    return StateSpaceModel._built(g.A, g.B @ M, g.C, g.D @ M)


def _add_ports(table, kind, prefix, groups, start):
    """Register ``(group, width)`` groups in ``table`` from offset ``start``;
    returns the offset after the last group."""
    for group, width in groups:
        name = prefix + group
        if name in table:
            raise ModelError(f"interconnection: signal {name!r} is declared twice")
        table[name] = (kind, start, int(width))
        start += int(width)
    return start


def _check_ports(name, model, n_in, n_out):
    """Raise unless ``model`` has the declared widths of block ``name``."""
    if (n_in, n_out) != (model.n_inputs, model.n_outputs):
        raise ModelError(
            f"interconnection: block {name!r} declares {n_in} inputs and "
            f"{n_out} outputs, its model has {model.n_inputs} and "
            f"{model.n_outputs}")


def _lower(blocks, connections, inputs, outputs):
    """Lower a declaration to the routing matrices ``(E_w, E_y, F_w, F_y)``
    of :class:`Interconnection`.

    Also returns the declared ``(inputs, outputs)`` widths of each block.  A
    block whose model is ``None`` is checked against its widths later, by
    :func:`_check_ports`, when its model is known.
    """
    dst, src, widths = {}, {}, []
    n_u = n_y = 0
    for name, model, in_groups, out_groups in blocks:
        u0, y0 = n_u, n_y
        n_u = _add_ports(dst, "u", f"{name}.", in_groups, n_u)
        n_y = _add_ports(src, "y", f"{name}.", out_groups, n_y)
        widths.append((n_u - u0, n_y - y0))
        if model is not None:
            _check_ports(name, model, *widths[-1])
    n_w = _add_ports(src, "w", "", inputs, 0)
    n_z = _add_ports(dst, "z", "", outputs, 0)
    routing = {("u", "w"): np.zeros((n_u, n_w)), ("u", "y"): np.zeros((n_u, n_y)),
               ("z", "w"): np.zeros((n_z, n_w)), ("z", "y"): np.zeros((n_z, n_y))}
    for to, frm, gain in connections:
        for port, table in ((to, dst), (frm, src)):
            if port not in table:
                raise ModelError(f"interconnection: unknown signal {port!r}")
        (dk, r, nr), (sk, c, nc) = dst[to], src[frm]
        g = np.asarray(gain, dtype=float)
        if g.ndim == 0 and nr == nc:
            g = g * np.eye(nr)
        if g.shape != (nr, nc):
            raise ModelError(f"interconnection: gain of shape {g.shape} from {frm!r} "
                             f"({nc} wide) to {to!r} ({nr} wide)")
        routing[dk, sk][r:r + nr, c:c + nc] += g
    return ((routing["u", "w"], routing["u", "y"], routing["z", "w"],
             routing["z", "y"]), widths)


class Interconnection:
    """Blocks interconnected by named signals, compiled once and closed many
    times.

    ``blocks`` is a sequence of ``(name, model, input_groups,
    output_groups)``; the groups are ``(group, width)`` pairs in the model's
    port order and are addressed as ``"name.group"``.  ``inputs`` and
    ``outputs`` are the ordered ``(signal, width)`` groups of the result.
    Each connection ``(destination, source, gain)`` adds ``gain`` times the
    source to the destination, where a destination is a block input port or
    an external output and a source is a block output port or an external
    input.  A scalar gain scales the identity; a matrix gain has shape
    (destination width, source width).  Unconnected block inputs are zero.

    A block whose model is ``None`` is free: every :meth:`close` supplies
    its model by name, checked against the block's declared widths.  The
    declaration is lowered to routing matrices when it is made.  With the
    stacked block inputs u_b and outputs y_b, a close imposes
    u_b = E_w w + E_y y_b and returns the system from the external inputs w
    to z = F_w w + F_y y_b.

    The stacked realization of the blocks is laid out once per set of free
    state counts; a close copies each free block into its slice.  The
    algebraic-loop inverse (I - D E_y)^-1, its conditioning check and the
    products that need only it, D and the routing are kept for the last
    stacked D seen, so a close whose D is unchanged (free blocks strictly
    proper, say) computes only the products with the blocks' A, B and C.
    Every close returns new arrays.  A compiled interconnection keeps that
    state between closes, so two threads must not close the same one.
    """

    def __init__(self, blocks, connections, inputs, outputs):
        self.blocks = tuple(blocks)
        self.connections = tuple(connections)
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self._routing, self._widths = _lower(self.blocks, self.connections,
                                             self.inputs, self.outputs)
        self._free = [k for k, block in enumerate(self.blocks) if block[1] is None]
        # free state counts, stacked A, B, C, D and the free blocks' slices
        self._work = (None, None, None)
        self._loop = (None, ())  # stacked D bytes and its loop products

    def close(self, models=None) -> StateSpaceModel:
        """Interconnect, taking each free block's model from ``models[name]``."""
        free = []
        for k in self._free:
            name = self.blocks[k][0]
            if models is None or name not in models:
                raise ModelError(f"interconnection: block {name!r} has no model")
            _check_ports(name, models[name], *self._widths[k])
            free.append(models[name])
        layout = tuple(g.n_states for g in free)
        if layout != self._work[0]:
            self._work = (layout, *self._lay_out(free))
        _, (A, B, C, D), slices = self._work
        for (x, u, y), g in zip(slices, free):
            A[x, x] = g.A
            B[x, u] = g.B
            C[y, x] = g.C
            D[y, u] = g.D
        key = D.tobytes()
        if key != self._loop[0]:
            self._loop = (key, self._loop_products(D))
        Minv, B_w, FM, D_w = self._loop[1]
        E_y = self._routing[1]
        return StateSpaceModel._built(A + B @ E_y @ Minv @ C, B @ B_w, FM @ C,
                                      D_w.copy())

    def _lay_out(self, free):
        """Every block stacked, the free ones as given, and the state, input
        and output slices of each free block."""
        models = [block[1] for block in self.blocks]
        for k, g in zip(self._free, free):
            models[k] = g
        starts = np.cumsum([(0, 0, 0)] + [(g.n_states, g.n_inputs, g.n_outputs)
                                         for g in models], axis=0)
        slices = [tuple(slice(a, b) for a, b in zip(starts[k], starts[k + 1]))
                  for k in self._free]
        return _stacked(models), slices

    def _loop_products(self, D):
        """(I - D E_y)^-1 and, associated as the closed-loop formula
        associates them, B's right factor, F_y (I - D E_y)^-1 and the
        feed-through."""
        E_w, E_y, F_w, F_y = self._routing
        n_y = D.shape[0]
        loop = np.eye(n_y) - D @ E_y
        if np.linalg.cond(loop) > 1e12:
            raise NumericError("singular algebraic loop in routed interconnection")
        Minv = la.solve(loop, np.eye(n_y))
        FM = F_y @ Minv
        return Minv, E_w + E_y @ Minv @ D @ E_w, FM, F_w + FM @ D @ E_w


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

# Resolvent entries (n^2 per point) solved in one batch: bounds the memory of
# a chunk for any grid length and state dimension.
_CHUNK_ENTRIES = 2 ** 14


def _general_resolvents(A) -> bool:
    """Whether ``scipy.linalg.solve`` treats every slice s I - A as a general
    matrix.

    Its structure check gives a diagonal, triangular, tridiagonal (n > 3)
    or symmetric slice a dedicated solver.  Off the diagonal s I - A has the
    entries of -A at every point, so A's pattern and symmetry decide for all
    points at once.
    """
    rows, cols = np.nonzero(A)
    below, above = (rows - cols).max(initial=0), (cols - rows).max(initial=0)
    if below == 0 or above == 0 or (below == above == 1 and A.shape[0] > 3):
        return False
    return not np.array_equal(A, A.T)


def _structured_solve(M, B):
    """``scipy.linalg.solve`` of the stacked resolvents ``M`` with ``B``
    broadcast to the stack, ill-conditioning warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", la.LinAlgWarning)
        return la.solve(M, np.broadcast_to(B, M.shape[:1] + B.shape))


def _responses(g: StateSpaceModel, s):
    """C (s I - A)^{-1} B + D at the complex points ``s``, chunk by chunk.

    Yields (n_points, n_y, n_u) arrays in the order of ``s``; each chunk is
    one batched solve on the stacked resolvents.  When every resolvent is a
    general matrix (:func:`_general_resolvents`, decided once from A) the
    solve is ``np.linalg.solve``, LAPACK ``gesv`` on each slice: the bits
    scipy's batched solve gives at one BLAS thread, at any thread count.
    A structured A keeps scipy's solve and its dedicated solver.  Responses
    are routinely evaluated close to poles (integrators, lightly damped
    modes), where the large value is the correct answer, so
    ill-conditioning is not an error; a resolvent that is singular, gives a
    non-finite solution or leaves a residual above 1e-6 max(1, |B|) raises
    :class:`NumericError`.
    """
    s = np.asarray(s, dtype=complex).ravel()
    n = g.n_states
    step = max(1, _CHUNK_ENTRIES // max(1, n * n))
    tol = 1e-6 * max(1.0, np.linalg.norm(g.B))
    solve = np.linalg.solve if _general_resolvents(g.A) else _structured_solve
    for k in range(0, s.size, step):
        sk = s[k:k + step, None, None]
        if n == 0:
            yield np.tile(g.D.astype(complex), (sk.size, 1, 1))
            continue
        # 0 - A, not -A: a zero of A stays +0 as in s*I - A
        M = np.subtract(0.0, g.A, out=np.empty((sk.size, n, n), complex))
        np.subtract(sk[:, 0], np.diag(g.A),
                    out=M.reshape(sk.size, n * n)[:, ::n + 1])
        try:
            X = solve(M, g.B)
        except la.LinAlgError as exc:
            raise NumericError(f"a point in s = {sk[0, 0, 0]:.6g} .. "
                               f"{sk[-1, 0, 0]:.6g} coincides with a system pole") from exc
        bad = ~np.all(np.isfinite(X), axis=(1, 2)) \
            | (np.linalg.norm(M @ X - g.B, axis=(1, 2)) > tol)
        if bad.any():
            raise NumericError(f"near-singular resolvent at s = {sk[bad.argmax(), 0, 0]:.6g}")
        yield g.C @ X + g.D


def sigma_max(g: StateSpaceModel, freqs_hz):
    """Largest singular value of the frequency response over ``freqs_hz``,
    and the first of those frequencies that attains it."""
    f = np.asarray(freqs_hz, dtype=float).ravel()
    best, at, k = -math.inf, 0, 0
    for H in _responses(g, 2j * np.pi * f):
        sv = np.linalg.svd(H, compute_uv=False)[:, 0]
        i = int(sv.argmax())
        if sv[i] > best:
            best, at = float(sv[i]), k + i
        k += len(H)
    return best, float(f[at])


def freq_response(g: StateSpaceModel, freqs_hz) -> FrequencyResponse:
    """Evaluate C (j 2 pi f I - A)^{-1} B + D on an ascending Hz grid."""
    f = np.asarray(freqs_hz, dtype=float).ravel()
    if f.size == 0 or np.any(f < 0):
        raise ModelError("frequency grid must be nonnegative")
    if f.size > 1 and not np.all(np.diff(f) > 0):
        raise ModelError("frequency grid must be strictly ascending")
    return FrequencyResponse(f, np.concatenate(list(_responses(g, 2j * np.pi * f))))


def spectral_abscissa(g) -> float:
    A = g.A if isinstance(g, StateSpaceModel) else np.atleast_2d(np.asarray(g, float))
    if A.shape[0] == 0:
        return -np.inf
    return float(np.max(np.linalg.eigvals(A).real))


def is_hurwitz(g) -> bool:
    """True iff every eigenvalue of A has a negative real part."""
    return spectral_abscissa(g) < 0


def _hamiltonian_has_imag_eig(g: StateSpaceModel, gamma: float) -> bool:
    A, B, C, D = g.A, g.B, g.C, g.D
    n = A.shape[0]
    R = gamma ** 2 * np.eye(g.n_inputs) - D.T @ D
    w = la.eigvalsh(R)
    if w.min() <= 1e-12 * max(1.0, w.max()):
        return True  # gamma at or below the largest singular value of D
    Rinv = la.solve(R, np.eye(g.n_inputs))
    Ah = A + B @ Rinv @ D.T @ C
    H = np.empty((2 * n, 2 * n))
    H[:n, :n] = Ah
    H[:n, n:] = B @ Rinv @ B.T
    H[n:, :n] = -C.T @ (np.eye(g.n_outputs) + D @ Rinv @ D.T) @ C
    H[n:, n:] = -Ah.T
    ev = np.linalg.eigvals(H)
    scale = max(1.0, float(np.abs(ev).max()))
    return bool(np.any(np.abs(ev.real) <= 1e-8 * scale))


def hinf_lower_bound(g: StateSpaceModel, poles=None):
    """Proven lower bound on the H-infinity norm: the largest singular value
    at DC, at the pole frequencies and of the feed-through D.

    Returns ``(bound, exact, peak_hz)``; ``exact`` marks a system whose norm
    needs no bisection (no inputs or outputs, no states, zero B or C), for
    which ``bound`` is the norm itself, and ``peak_hz`` is the frequency
    that attains the bound (0 for a constant response, infinity where D
    exceeds every candidate).  ``poles`` are the eigenvalues of ``g.A`` when
    the caller has them already.  Raises :class:`NumericError` for
    non-Hurwitz systems and where a pole sits numerically on the imaginary
    axis (a near-singular resolvent).
    """
    if poles is None:
        poles = g.poles()
    if poles.size and not poles.real.max() < 0:
        raise NumericError("H-infinity norm undefined: system is not Hurwitz")
    if min(g.n_inputs, g.n_outputs) == 0:
        return 0.0, True, 0.0
    if g.n_states == 0 or not (np.any(g.B) and np.any(g.C)):
        return (float(la.svdvals(g.D).max()) if g.D.size else 0.0), True, 0.0
    # conjugate pairs and real poles repeat points, so each is evaluated once
    cand = np.unique(np.concatenate([[0.0], np.abs(poles.imag) / (2 * np.pi),
                                     np.abs(poles) / (2 * np.pi)]))
    lo, peak_hz = sigma_max(g, cand)
    d = float(la.svdvals(g.D).max())
    if d > lo:
        lo, peak_hz = d, math.inf
    if lo == 0.0:
        lo = 1e-14
    return lo, False, peak_hz


def hinf_norm(g: StateSpaceModel, rel_tol: float = 1e-6, lower=None,
              bar: float = math.inf) -> float:
    """H-infinity norm by bisection on a Hamiltonian imaginary-eigenvalue test.

    The bisection starts from ``lower``, what :func:`hinf_lower_bound`
    returns for ``g``, which is computed here when not given.  Every return
    is at least that bound, so a caller that only asks whether the norm is
    below some threshold may stop at the bound.  A caller that asks only
    whether the norm is below ``bar`` gets, as soon as the tests prove the
    norm at or above ``bar``, that proven value ``lo >= bar``; the full
    bisection, which never lowers ``lo``, would also have returned a value
    at or above ``bar``, and below ``bar`` the two agree.  Raises
    :class:`NumericError` as :func:`hinf_lower_bound` does, when the norm
    cannot be bracketed and, chained to the ``LinAlgError``, when a
    Hamiltonian eigensolve fails.
    """
    lo, exact, _ = hinf_lower_bound(g) if lower is None else lower
    if exact:
        return lo
    try:
        hi = lo * (1 + 1e-3)
        for _ in range(80):
            if lo >= bar or not _hamiltonian_has_imag_eig(g, hi):
                break
            lo = hi
            hi *= 2.0
        else:
            raise NumericError("H-infinity bisection failed to bracket the norm")
        while lo < bar and hi - lo > rel_tol * lo:
            mid = 0.5 * (lo + hi)
            if _hamiltonian_has_imag_eig(g, mid):
                lo = mid
            else:
                hi = mid
        return lo if lo >= bar else 0.5 * (lo + hi)
    except la.LinAlgError as exc:
        raise NumericError(f"Hamiltonian eigensolve failed: {exc}") from exc


# ---------------------------------------------------------------------------
# Riccati-based observer gain
# ---------------------------------------------------------------------------

def _is_detectable(A, C):
    ev = la.eigvals(A)
    n = A.shape[0]
    for lam in ev:
        if lam.real >= -1e-8:
            M = np.vstack([A - lam * np.eye(n), C])
            if np.linalg.matrix_rank(M, tol=1e-10 * max(1.0, np.abs(lam))) < n:
                return False, lam
    return True, None


def care_solve(A, C, Q_weight, V_weight):
    """Filter algebraic Riccati equation A P + P A' - P C' V^-1 C P + Q = 0.

    Returns (P, L) with L = P C' V^-1 such that A - L C is Hurwitz; a
    residual above 1e-6 max(1, |P| max(1, |A|)) raises :class:`NumericError`.

    Parameters follow the observer-design convention: Q_weight is the
    process-noise weight (PSD), V_weight the measurement weight (PD).
    """
    A = _as_matrix(A)
    C = _as_matrix(C)
    Q = _as_matrix(Q_weight)
    V = _as_matrix(V_weight)
    n = A.shape[0]
    if C.shape[1] != n or Q.shape != (n, n) or V.shape != (C.shape[0], C.shape[0]):
        raise ModelError("care_solve: inconsistent dimensions")
    ok, lam = _is_detectable(A, C)
    if not ok:
        raise NumericError(f"(A, C) not detectable: unobservable unstable mode at {lam}")
    try:
        P = la.solve_continuous_are(A.T, C.T, Q, V)
    except (la.LinAlgError, ValueError) as exc:
        raise NumericError(f"Riccati solver failed: {exc}") from exc
    P = 0.5 * (P + P.T)
    L = P @ C.T @ la.solve(V, np.eye(V.shape[0]))
    res = A @ P + P @ A.T - P @ C.T @ la.solve(V, C @ P) + Q
    scale = max(1.0, np.linalg.norm(P) * max(1.0, np.linalg.norm(A)))
    if np.linalg.norm(res) > 1e-6 * scale:
        raise NumericError(f"Riccati residual {np.linalg.norm(res):.3e} above tolerance")
    if not is_hurwitz(A - L @ C):
        raise NumericError("Riccati gain does not stabilize A - L C")
    return P, L


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def discretize_zoh(g: StateSpaceModel, dt: float):
    """Exact zero-order-hold discretization of (A, B)."""
    if dt <= 0:
        raise ModelError("dt must be positive")
    n, m = g.n_states, g.n_inputs
    if n == 0:
        return np.zeros((0, 0)), np.zeros((0, m))
    M = np.zeros((n + m, n + m))
    M[:n, :n] = g.A
    M[:n, n:] = g.B
    E = la.expm(M * dt)
    return E[:n, :n], E[:n, n:]


def simulate(systems, inputs, dt: float, x0=None):
    """Fixed-step ZOH simulation; returns (t, states, outputs).

    ``systems`` is one :class:`StateSpaceModel`, or a non-empty sequence of
    models of one shape (n states, m inputs, p outputs) that are all driven
    by the same ``inputs``.  ``inputs`` has shape (n_samples, m); the input
    is held constant over each step.  Outputs are y[k] = C x[k] + D u[k].
    One model gives states (n_samples, n) and outputs (n_samples, p), with
    ``x0`` of n entries; a sequence of n_sys models gives
    (n_samples, n_sys, n) and (n_samples, n_sys, p), with ``x0`` of shape
    (n_sys, n), one row per system.  ``x0`` defaults to zero.

    Every system advances in one recurrence, a model alone as a stack of
    one: the samples are processed in blocks of at most ``_CHUNK_ROWS``
    rows, the input terms Bd u[k] and the outputs of a block are each one
    stacked ``np.matvec``, and only x[k+1] = Ad x[k] + Bd u[k] runs step
    by step, one ``np.matvec`` and one add over the whole stack per step.
    So n_sys systems cost about one system's Python overhead, and the
    temporaries beyond the returned arrays stay bounded.  The stacked
    ``np.matvec`` forms each system's product from that system's operands
    with the summation of the product alone, and the add is elementwise,
    so each system's slice is bit-identical to simulating it by itself,
    one term and one step at a time.
    """
    single = isinstance(systems, StateSpaceModel)
    gs = [systems] if single else list(systems)
    if not gs:
        raise ModelError("simulate needs at least one system")
    g = gs[0]
    shape = (g.n_states, g.n_inputs, g.n_outputs)
    for i, h in enumerate(gs):
        if (h.n_states, h.n_inputs, h.n_outputs) != shape:
            raise ModelError(
                f"system {i} has (n, m, p) = "
                f"{(h.n_states, h.n_inputs, h.n_outputs)}, system 0 {shape}")
    u = np.asarray(inputs, dtype=float)
    if u.ndim != 2 or u.shape[1] != g.n_inputs:
        raise ModelError(f"inputs have shape {u.shape}, not "
                         f"(n_samples, {g.n_inputs})")
    if u.shape[0] < 2:
        raise ModelError("need at least 2 input samples")
    if not np.all(np.isfinite(u)):
        raise ModelError("non-finite input samples")
    n, n_sys = g.n_states, len(gs)
    x = np.zeros((n_sys, n)) if x0 is None else np.asarray(x0, dtype=float)
    if single and x.size == n:
        x = x.reshape(1, n)
    if x.shape != (n_sys, n):
        raise ModelError(f"x0 has shape {x.shape}, not " + (
            f"{n} entries" if single else f"{(n_sys, n)}: one row per system"))
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ModelError(f"non-finite x0 of system {bad[0]}")
    Ad, Bd = (np.stack(mats) for mats in zip(*(discretize_zoh(h, dt) for h in gs)))
    X, Y = _zoh_recurrence(Ad, Bd, np.stack([h.C for h in gs]),
                           np.stack([h.D for h in gs]), u, x)
    t = np.arange(u.shape[0]) * dt
    return (t, X[:, 0], Y[:, 0]) if single else (t, X, Y)


def _zoh_recurrence(Ad, Bd, C, D, u, x0):
    """States (n_samples, n_sys, n) and outputs (n_samples, n_sys, p) of
    x[k+1] = Ad x[k] + Bd u[k], y[k] = C x[k] + D u[k] for the stacked
    matrices of n_sys systems from x[0] = ``x0`` (n_sys, n), in blocks of
    ``_CHUNK_ROWS`` samples; each step writes into the next row of the
    states in place."""
    n_s = u.shape[0]
    X = np.empty((n_s, *x0.shape))
    Y = np.empty((n_s, x0.shape[0], C.shape[1]))
    X[0] = x0
    matvec, add = np.matvec, np.add       # the per-step calls, bound once
    for s in range(0, n_s, _CHUNK_ROWS):
        rows = slice(s, s + _CHUNK_ROWS)
        us = u[rows, None, :]
        xs = list(X[s:s + _CHUNK_ROWS + 1])   # and the next block's first row
        for cur, nxt, bu in zip(xs, xs[1:], np.matvec(Bd, us)):
            matvec(Ad, cur, nxt)
            add(nxt, bu, nxt)
        Y[rows] = np.matvec(C, X[rows]) + np.matvec(D, us)
    return X, Y
