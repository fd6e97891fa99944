/* The package's compiled module, built and loaded once, by ssbroyden.updates.
 * Every entry rounds each operation once, in the order the Python code it
 * serves fixes (no contraction, no fast-math), and returns the IEEE flags it
 * raised, which updates.replay_flags raises again through numpy.
 *
 * pinn_z and pinn_derivatives: the two elementwise passes of
 * PinnPoisson1D.value_and_gradient over its (4, rows, m) workspace, on either
 * side of its np.tanh.  Each element gets the multiplies, adds and subtracts
 * of the whole-array expressions, operands in their order, so the bits are
 * numpy's; tanh (numpy's SIMD loops and libm's differ in bits) and the
 * reductions stay numpy's.  At m = 64, N = 512 an evaluation took 216 -> 152
 * us on one core of an Intel Xeon with AVX-512.  These loops carry no
 * target_clones: there an AVX2 copy took 147-162 us against 142-143 us
 * without.
 *
 * rank_two_update, for ssbroyden.updates.apply_update: H' written over H, in
 * the order its docstring fixes.  The phi and tau cases are loop-invariant
 * flags; a weight is formed only on the path that uses it, and ELEMENT, the
 * one statement of an element, is written once for a double or a vec4 of
 * four k.
 *
 * Two traversals, picked by those flags alone.  Where tau != 1 and phi != 1
 * every element divides twice, by y'Hy and by tau, and the divider, not
 * memory, sets the cost: at n = 500 a row sweep took 119 / 182 / 361 us
 * with 0 / 1 / 2 divisions per element (AVX2 copy).  There one flat loop
 * walks the 4 x 4 tiles of vec4 rows on and above the diagonal, row by
 * row, and writes each tile's rows over H[i, k] and its lanes, transposed,
 * over H[k, i], so every off-diagonal pair is formed once, as BLAS dsyr2
 * does; the n % 4 strip goes element by element.  It reads the upper
 * triangle and the 4 x 4 diagonal blocks: a diagonal tile reads its entries
 * below the diagonal before any store reaches them, and H is symmetric, so
 * they equal their mirrors.  Every term of ELEMENT is symmetric in i and k
 * and multiplication commutes exactly, so each mirror holds the bits the
 * element's own operations give: half the divides, same result.  Cache
 * blocks of 32 x 32 around the tiles, and a per-element case for diagonal
 * tiles, gave the same bits at x1.04-1.3 the flat loop's time per call
 * (n = 25 to 1000, a Xeon with 2 MiB L2 per core;
 * BENCH_kernel_flat_tiles.json).  Every other path keeps one row sweep,
 * which -O3 unswitches on the flags: there the pairs measured slower,
 * x1.2-1.3 at n = 500 and x2.1-3.3 at n = 1000 with one division and
 * x1.3-3.9 with none, the transposed stores costing more than the divides
 * they save.
 *
 * On x86-64 with glibc update_loop is built twice, for AVX2 and for
 * baseline x86-64, and the loader's ifunc picks the copy the CPU runs.  The
 * loops make no reduction, so both give every element the same IEEE
 * operations in the same order: the same bits. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <fenv.h>
#include <stddef.h>
#include <string.h>

typedef double vec4 __attribute__((vector_size(4 * sizeof(double))));

/* o = H[i, k] becomes H'[i, k], from the i and k entries of s, Hy and v; the
 * k operands may be vec4 lanes.  v is read only where phi is neither 0 nor 1. */
#define ELEMENT(o, si, sk, hyi, hyk, vi, vk)                                   \
    do {                                                                       \
        if (bfgs) {                                                            \
            o = o - ((si) * (hyk) + (hyi) * (sk)) * rho + ((si) * (sk)) * weight; \
        } else {                                                               \
            o = o - ((hyi) * (hyk)) / yhy;                                     \
            if (with_v)                                                        \
                o = o + ((vi) * (vk)) * weight;                                \
        }                                                                      \
        if (scaled)                                                            \
            o = o / tau;                                                       \
        o = o + ((si) * (sk)) * rho;                                           \
    } while (0)

/* The IEEE flags raised since the last feclearexcept: 1 divide by zero,
 * 2 overflow, 4 underflow, 8 invalid. */
static int raised_flags(void)
{
    const int raised = fetestexcept(FE_ALL_EXCEPT);
    return !!(raised & FE_DIVBYZERO) | !!(raised & FE_OVERFLOW) << 1
           | !!(raised & FE_UNDERFLOW) << 2 | !!(raised & FE_INVALID) << 3;
}

/* Forms v = s / ys - hy / yhy in the scratch v where phi is neither 0 nor 1,
 * then writes H' over H.  Returns the IEEE flags raised by both. */
#if defined(__x86_64__) && defined(__GLIBC__)
__attribute__((target_clones("avx2", "default")))
#endif
static int update_loop(double *H, ptrdiff_t n, const double *s, const double *hy, double *v,
                       double ys, double rho, double yhy, double phi, double tau)
{
    const int bfgs = phi == 1.0, with_v = phi != 0.0 && !bfgs, scaled = tau != 1.0;
    feclearexcept(FE_ALL_EXCEPT);
    if (with_v)
        for (ptrdiff_t i = 0; i < n; i++)
            v[i] = s[i] / ys - hy[i] / yhy;
    const double weight = bfgs ? rho * rho * yhy : with_v ? phi * yhy : 0.0;
    if (scaled && !bfgs) {
        const int bfgs = 0, scaled = 1;  /* lets ELEMENT drop their branches */
        const ptrdiff_t m = n - n % 4;
        for (ptrdiff_t i0 = 0; i0 < m; i0 += 4)
            for (ptrdiff_t k0 = i0; k0 < m; k0 += 4) {
                /* Rows i0..i0+3 over H[i, k0..k0+3], then each lane l of them
                 * over H[k0 + l, i0..i0+3].  Unrolled, o stays in registers;
                 * rolled, it went through the stack and the tiles took x1.8
                 * the row sweep's time. */
                vec4 sk, hyk, vk = {0}, o[4];
                memcpy(&sk, s + k0, sizeof sk);
                memcpy(&hyk, hy + k0, sizeof hyk);
                if (with_v)
                    memcpy(&vk, v + k0, sizeof vk);
#pragma GCC unroll 4
                for (int r = 0; r < 4; r++) {
                    const ptrdiff_t i = i0 + r;
                    memcpy(&o[r], H + i * n + k0, sizeof o[r]);
                    ELEMENT(o[r], s[i], sk, hy[i], hyk, v[i], vk);
                    memcpy(H + i * n + k0, &o[r], sizeof o[r]);
                }
#pragma GCC unroll 4
                for (int l = 0; l < 4; l++) {
                    const vec4 column = {o[0][l], o[1][l], o[2][l], o[3][l]};
                    memcpy(H + (k0 + l) * n + i0, &column, sizeof column);
                }
            }
        for (ptrdiff_t k = m; k < n; k++)
            for (ptrdiff_t i = 0; i <= k; i++) {
                double o = H[i * n + k];
                ELEMENT(o, s[i], s[k], hy[i], hy[k], v[i], v[k]);
                H[i * n + k] = H[k * n + i] = o;
            }
    } else {
        for (ptrdiff_t i = 0; i < n; i++) {
            double *row = H + i * n;
            const double si = s[i], hyi = hy[i], vi = with_v ? v[i] : 0.0;
            for (ptrdiff_t k = 0; k < n; k++) {
                double o = row[k];
                ELEMENT(o, si, s[k], hyi, hy[k], vi, v[k]);
                row[k] = o;
            }
        }
    }
    return raised_flags();
}

/* z = w1 x + b1 of PinnPoisson1D.value_and_gradient over its (rows, m) t:
 * t[i, j] = w1[j] * grid[i], then + b1[j], each rounded once, as numpy's
 * np.outer(x, w1) + b1 rounds them. */
static void z_loop(double *t, const double *grid, ptrdiff_t rows, const double *w1,
                   const double *b1, ptrdiff_t m)
{
    for (ptrdiff_t i = 0; i < rows; i++)
        for (ptrdiff_t j = 0; j < m; j++)
            t[i * m + j] = w1[j] * grid[i] + b1[j];
}

/* t1, t2 and t3 of the same evaluation from t = tanh(z), each of size
 * elements, element by element in the order and with the operands of
 * numpy's passes: t1 = 1 - t t, m2 = -2 t1, t3 = (1 - (3 t) t) m2,
 * t2 = m2 t. */
static void derivative_loop(double *work, ptrdiff_t size)
{
    const double *restrict t = work;
    double *restrict t1 = work + size, *restrict t2 = t1 + size, *restrict t3 = t2 + size;
    for (ptrdiff_t e = 0; e < size; e++) {
        const double te = t[e], d1 = 1.0 - te * te, m2 = -2.0 * d1;
        t1[e] = d1;
        t3[e] = (1.0 - (3.0 * te) * te) * m2;
        t2[e] = m2 * te;
    }
}

/* Takes a view of obj, a C-contiguous float64 block of ndim dimensions, the
 * d-th of length shape[d] (shape[d] < 0: any, and sets it).  Returns 0, or
 * -1 with no view held and the error cleared, so the caller raises one
 * ValueError. */
static int get_block(PyObject *obj, Py_buffer *view, int flags, int ndim, Py_ssize_t *shape)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0) {
        PyErr_Clear();
        return -1;
    }
    int ok = view->ndim == ndim && view->itemsize == sizeof(double)
             && view->format != NULL && strcmp(view->format, "d") == 0;
    for (int d = 0; ok && d < ndim; d++) {
        if (shape[d] < 0)
            shape[d] = view->shape[d];
        ok = view->shape[d] == shape[d];
    }
    if (!ok) {
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static int takes(const char *name, Py_ssize_t expected, Py_ssize_t nargs)
{
    if (nargs == expected)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)", name, expected, nargs);
    return 0;
}

/* rank_two_update(H, s, Hy, ys, rho, yHy, phi, tau) -> flags */
static PyObject *rank_two_update(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (!takes("rank_two_update", 8, nargs))
        return NULL;
    double scalars[5];
    for (int j = 0; j < 5; j++) {
        scalars[j] = PyFloat_AsDouble(args[3 + j]);
        if (scalars[j] == -1.0 && PyErr_Occurred())
            return NULL;
    }
    /* s fixes n.  The views start zeroed: a refused PyObject_GetBuffer leaves
     * obj NULL, and releasing such a view does nothing, so all paths share one exit. */
    Py_buffer h = {0}, s = {0}, hy = {0};
    Py_ssize_t n = -1;
    PyObject *result = NULL;
    if (get_block(args[1], &s, PyBUF_SIMPLE, 1, &n) < 0
        || get_block(args[2], &hy, PyBUF_SIMPLE, 1, &n) < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "apply_update needs C-contiguous float64 s and Hy of one length n");
    } else if (get_block(args[0], &h, PyBUF_WRITABLE, 2, (Py_ssize_t[]){n, n}) < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "apply_update needs a C-contiguous, writeable float64 (n, n) H");
    } else {
        double *v = PyMem_Malloc(n * sizeof(double));
        int raised = -1;
        if (v != NULL) {
            Py_BEGIN_ALLOW_THREADS
            raised = update_loop(h.buf, n, s.buf, hy.buf, v, scalars[0], scalars[1],
                                 scalars[2], scalars[3], scalars[4]);
            Py_END_ALLOW_THREADS
            PyMem_Free(v);
        }
        result = raised < 0 ? PyErr_NoMemory() : PyLong_FromLong(raised);
    }
    PyBuffer_Release(&h);
    PyBuffer_Release(&s);
    PyBuffer_Release(&hy);
    return result;
}

/* pinn_z(work, grid, w1, b1) -> flags: z over work[0], which is t. */
static PyObject *pinn_z(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (!takes("pinn_z", 4, nargs))
        return NULL;
    Py_buffer work = {0}, grid = {0}, w1 = {0}, b1 = {0};
    Py_ssize_t shape[3] = {4, -1, -1};
    PyObject *result = NULL;
    if (get_block(args[1], &grid, PyBUF_SIMPLE, 1, &shape[1]) < 0
        || get_block(args[2], &w1, PyBUF_SIMPLE, 1, &shape[2]) < 0
        || get_block(args[3], &b1, PyBUF_SIMPLE, 1, &shape[2]) < 0) {
        PyErr_SetString(PyExc_ValueError, "pinn_z needs a C-contiguous float64 grid, "
                        "and C-contiguous float64 w1 and b1 of one length m");
    } else if (get_block(args[0], &work, PyBUF_WRITABLE, 3, shape) < 0) {
        PyErr_SetString(PyExc_ValueError, "pinn_z needs a C-contiguous, writeable float64 "
                        "(4, len(grid), m) work");
    } else {
        feclearexcept(FE_ALL_EXCEPT);
        z_loop(work.buf, grid.buf, shape[1], w1.buf, b1.buf, shape[2]);
        result = PyLong_FromLong(raised_flags());
    }
    PyBuffer_Release(&work);
    PyBuffer_Release(&grid);
    PyBuffer_Release(&w1);
    PyBuffer_Release(&b1);
    return result;
}

/* pinn_derivatives(work) -> flags: t1, t2 and t3 over work[1:] from work[0]. */
static PyObject *pinn_derivatives(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (!takes("pinn_derivatives", 1, nargs))
        return NULL;
    Py_buffer work;
    Py_ssize_t shape[3] = {4, -1, -1};
    if (get_block(args[0], &work, PyBUF_WRITABLE, 3, shape) < 0) {
        PyErr_SetString(PyExc_ValueError, "pinn_derivatives needs a C-contiguous, writeable "
                        "float64 (4, rows, m) work");
        return NULL;
    }
    feclearexcept(FE_ALL_EXCEPT);
    derivative_loop(work.buf, shape[1] * shape[2]);
    PyBuffer_Release(&work);
    return PyLong_FromLong(raised_flags());
}

static PyMethodDef methods[] = {
    {"rank_two_update", (PyCFunction)(void (*)(void))rank_two_update, METH_FASTCALL,
     "rank_two_update(H, s, Hy, ys, rho, yHy, phi, tau) -> IEEE flags raised\n\n"
     "Writes H' over H."},
    {"pinn_z", (PyCFunction)(void (*)(void))pinn_z, METH_FASTCALL,
     "pinn_z(work, grid, w1, b1) -> IEEE flags raised\n\n"
     "Writes work[0][i, j] = w1[j] * grid[i] + b1[j]."},
    {"pinn_derivatives", (PyCFunction)(void (*)(void))pinn_derivatives, METH_FASTCALL,
     "pinn_derivatives(work) -> IEEE flags raised\n\n"
     "Writes 1 - t t, (-2 (1 - t t)) t and (1 - (3 t) t) (-2 (1 - t t)) over\n"
     "work[1], work[2] and work[3] from t = work[0]."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_kernel", NULL, 0, methods};

PyMODINIT_FUNC PyInit__kernel(void)
{
    return PyModule_Create(&module);
}
