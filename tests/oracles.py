"""Independent reference implementations used only by the tests.

Everything here is deliberately written with different algorithms or
different algebra than the library code it checks: a central
finite-difference gradient, a double-loop matrix-vector product, a
Gaussian-elimination linear solver and determinant, the dynamic-theta
clamp interval from an explicitly solved ``b``, a cyclic Jacobi
eigenvalue routine, a self-contained textbook BFGS minimizer
(Woodbury-form update, its own bracketing/zoom search with the cubic
solved through a normalized quadratic-formula root), the self-scaled
Broyden class in its direct (B) form, the scaling term sigma from the
determinants of that form, and scipy's BFGS inverse-Hessian update.
None of these call into the package beyond plain numpy arrays in/out;
the finite-difference gradient calls only the objective's ``value``.
"""

import math

import numpy as np


def finite_difference_gradient(problem, x, h=1e-6):
    """Central-difference gradient of ``problem.value``:
    (f(x+h*e_i) - f(x-h*e_i)) / (2h)."""
    if not h > 0.0:
        raise ValueError(f"step must be positive, got {h:g}")
    x = np.array(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (problem.value(xp) - problem.value(xm)) / (2.0 * h)
    return g


def naive_matvec(m, x):
    m = np.asarray(m, dtype=float)
    x = np.asarray(x, dtype=float)
    n_rows, n_cols = m.shape
    out = np.zeros(n_rows)
    for i in range(n_rows):
        acc = 0.0
        for j in range(n_cols):
            acc += m[i, j] * x[j]
        out[i] = acc
    return out


def gaussian_solve(a, b):
    """Solve a x = b by Gaussian elimination with partial pivoting;
    ``b`` is a vector or a matrix of right-hand-side columns."""
    a = np.array(a, dtype=float)
    x = np.array(b, dtype=float)
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0.0:
            raise ZeroDivisionError("singular matrix")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            x[[col, pivot]] = x[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            x[row] -= factor * x[col]
    for col in range(n - 1, -1, -1):
        x[col] = (x[col] - np.dot(a[col, col + 1:], x[col + 1:])) / a[col, col]
    return x


def elimination_inverse(a):
    """Inverse of ``a`` by :func:`gaussian_solve` on the identity."""
    return gaussian_solve(a, np.eye(a.shape[0]))


def elimination_determinant(a):
    """Determinant of ``a`` by Gaussian elimination with partial pivoting:
    the product of the pivots, its sign flipped by each row swap."""
    a = np.array(a, dtype=float)
    det = 1.0
    for col in range(a.shape[0]):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0.0:
            return 0.0
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            det = -det
        det *= a[col, col]
        a[col + 1:, col:] -= np.outer(a[col + 1:, col] / a[col, col], a[col, col:])
    return det


def direct_form(B, s, y, theta):
    """B' of the Broyden class in its direct (B) form, without scaling:

        B' = B - (B s)(B s)^T / s^T B s + y y^T / y^T s + theta (s^T B s) w w^T,
        w  = y / y^T s - B s / s^T B s,

    where ``theta`` weighs the DFP-like term of the B side (0 is BFGS,
    1 is DFP)."""
    Bs = B @ s
    sBs = float(s @ Bs)
    ys = float(y @ s)
    w = y / ys - Bs / sBs
    return (B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / ys
            + theta * sBs * np.outer(w, w))


def direct_broyden_update(H, s, y, theta, tau):
    """H' of the self-scaled Broyden class, from its direct (B) form.

    With ``B = H^-1`` (by elimination) the class updates the scaled
    ``tau B`` by :func:`direct_form` and returns ``B'^-1``, again by
    elimination.  The inverse form weighs its ``v v^T`` term by the dual
    ``phi = (1 - theta) / (1 + (h b - 1) theta)``, which this form never
    computes.
    """
    return elimination_inverse(direct_form(tau * elimination_inverse(H), s, y, theta))


def sigma_from_determinants(H, s, y, theta):
    """``sigma = 1 + theta a`` of the self-scaled class, from determinants.

    With ``B = H^-1`` by elimination, ``b = s^T B s / y^T s`` formed from
    B and ``B'`` the unscaled :func:`direct_form`, the determinant of the
    Broyden class update is ``det(B') = det(B) (1 + theta a) / b`` with
    ``a = b h - 1``, so ``sigma = b det(B') / det(B)``: both determinants
    by elimination, a quantity the library never computes.
    """
    B = elimination_inverse(H)
    b = float(s @ B @ s) / float(y @ s)
    return b * elimination_determinant(direct_form(B, s, y, theta)) / elimination_determinant(B)


def scipy_bfgs_update(H, s, y, init_scale=1.0):
    """``scipy.optimize.BFGS``'s inverse-Hessian update of ``H`` by the
    pair ``(s, y)``, or of the identity with ``init_scale="auto"``,
    which scipy rescales by ``y^T s / y^T y`` (Nocedal & Wright, eq.
    6.20) before its first update.  scipy is imported here, on use.
    """
    from scipy.optimize import BFGS
    bfgs = BFGS(init_scale=init_scale)
    bfgs.initialize(s.size, "inv_hess")
    if init_scale != "auto":
        bfgs.H = np.array(H, dtype=float)
    bfgs.update(s, y)
    return bfgs.get_matrix()


def theta_bounds(H, s, y):
    """Clamp interval [theta-, theta+] of the dynamic mixing parameter.

    ``b = s^T H^-1 s / y^T s`` comes from :func:`gaussian_solve` instead
    of the direction identity, and ``h = y^T H y / y^T s`` from plain
    numpy products.  With ``a = b h - 1``, ``c = sqrt(a / (1 + a))`` and
    ``rho- = min(1, h (1 - c))`` the bounds are ``(rho- - 1) / a`` and
    ``1 / rho-``.  Returns ``(theta_minus, theta_plus, a)``; the bounds
    are None when ``a <= 0``, where the closed forms break down.
    """
    ys = float(y @ s)
    h = float(y @ (H @ y)) / ys
    b = float(s @ gaussian_solve(H, s)) / ys
    a = b * h - 1.0
    if a <= 0.0:
        return None, None, a
    rho_minus = min(1.0, h * (1.0 - math.sqrt(a / (1.0 + a))))
    return (rho_minus - 1.0) / a, 1.0 / rho_minus, a


def jacobi_eigenvalues(a, tol=1e-12, max_sweeps=100):
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a.ravel().copy()
    for _ in range(max_sweeps):
        off = math.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * max(1.0, np.max(np.abs(np.diag(a)))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                beta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, beta) / (abs(beta) + math.hypot(1.0, beta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                a[p, q] = a[q, p] = 0.0
    return np.sort(np.diag(a))


def _cubic_root_min(a0, f0, g0, a1, f1, g1):
    """Interior minimiser of the Hermite cubic through two (value, slope)
    samples, via the normalized-coordinate quadratic formula; None when
    the cubic has no real stationary minimum."""
    h = a1 - a0
    if h == 0.0:
        return None
    c2 = 3.0 * (f1 - f0) - (2.0 * g0 + g1) * h
    c3 = -2.0 * (f1 - f0) + (g0 + g1) * h
    qa, qb, qc = 3.0 * c3, 2.0 * c2, g0 * h
    if qa == 0.0:
        if qb == 0.0:
            return None
        t = -qc / qb
        if qb <= 0.0:  # second derivative at the root
            return None
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            return None
        # the (-qb + sqrt)/2qa root always has p'' = sqrt(disc) >= 0
        t = (-qb + math.sqrt(disc)) / (2.0 * qa)
    return a0 + t * h


def _ref_zoom(phi, lo, hi, phi0, dphi0, c1, c2, max_iters):
    for _ in range(max_iters):
        w = abs(hi[0] - lo[0])
        if w <= 1e-14 * max(1.0, abs(lo[0]), abs(hi[0])):
            return None
        left = min(lo[0], hi[0]) + 0.1 * w
        right = max(lo[0], hi[0]) - 0.1 * w
        cand = _cubic_root_min(lo[0], lo[1], lo[2], hi[0], hi[1], hi[2])
        if cand is None or not math.isfinite(cand):
            cand = 0.5 * (lo[0] + hi[0])
        else:
            cand = min(max(cand, left), right)
        fa, ga = phi(cand)
        trial = (cand, fa, ga)
        if fa > phi0 + c1 * cand * dphi0 or fa >= lo[1]:
            hi = trial
        else:
            if abs(ga) <= -c2 * dphi0:
                return trial
            if ga * (hi[0] - lo[0]) >= 0.0:
                hi = lo
            lo = trial
    return None


def _ref_search(phi, phi0, dphi0, c1=1e-4, c2=0.9, alpha0=1.0,
                alpha_max=1e10, max_bracket=20, max_zoom=30):
    prev = (0.0, phi0, dphi0)
    alpha = alpha0
    for i in range(max_bracket):
        fa, ga = phi(alpha)
        cur = (alpha, fa, ga)
        if fa > phi0 + c1 * alpha * dphi0 or (i > 0 and fa >= prev[1]):
            return _ref_zoom(phi, prev, cur, phi0, dphi0, c1, c2, max_zoom)
        if abs(ga) <= -c2 * dphi0:
            return cur
        if ga >= 0.0:
            return _ref_zoom(phi, cur, prev, phi0, dphi0, c1, c2, max_zoom)
        prev = cur
        nxt = min(2.0 * alpha, alpha_max)
        if nxt <= alpha:
            break
        alpha = nxt
    return None


def reference_bfgs(value_and_gradient, x0, gtol=1e-8, max_iters=100,
                   c1=1e-4, c2=0.9):
    """Self-contained textbook BFGS; returns the list of f values after
    each iteration (same quantity as the library's trace f column)."""
    x = np.array(x0, dtype=float)
    n = x.size
    f, g = value_and_gradient(x)
    h_mat = np.eye(n)
    fs = []
    eye = np.eye(n)
    for _ in range(max_iters):
        if np.max(np.abs(g)) <= gtol:
            break
        d = -(h_mat @ g)
        dphi0 = float(g @ d)

        def phi(alpha):
            fa, ga = value_and_gradient(x + alpha * d)
            return fa, float(ga @ d)

        res = _ref_search(phi, f, dphi0, c1=c1, c2=c2)
        if res is None:
            break
        alpha = res[0]
        x_new = x + alpha * d
        f_new, g_new = value_and_gradient(x_new)
        s = alpha * d
        y = g_new - g
        ys = float(y @ s)
        if ys > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            rho = 1.0 / ys
            left = eye - rho * np.outer(s, y)
            h_mat = left @ h_mat @ left.T + rho * np.outer(s, s)
        x, f, g = x_new, f_new, g_new
        fs.append(f)
    return fs
