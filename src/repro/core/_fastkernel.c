/* Optional compiled inner loop of repro.core.fastkernel (Dual-I).
 *
 * One function: eval_dual_i(cu, cv, starts, ends, label_x, label_y,
 * label_z, flat_matrix, ncols, cell_bytes, out) — Theorem 3 per
 * aligned component id, writing 0/1 into a uint8 answer buffer.  cu
 * and cv are C-contiguous int64 buffers, the five label columns int32,
 * and the TLC matrix holds cells of cell_bytes bytes: 1, 2 or 4
 * (unsigned, the packed widths) or 8 (int64).  The non-tree test
 * compares the two gathered cells (N[x1,z2] > N[y1,z2]) instead of
 * subtracting them, so unsigned cells cannot underflow.  Arrays come
 * in via the buffer protocol (no numpy C API, so the extension builds
 * against a bare CPython).  The caller (FastKernel) owns validation:
 * component ids are already bounds-checked against the label arrays,
 * and a loaded index's labels passed the load-time invariant check,
 * so the loop runs with the GIL released and no per-element branching
 * beyond the query itself.
 *
 * Built only when REPRO_FAST_KERNEL=1 (see setup.py); answers are
 * bit-for-bit those of DualILabelArrays.query_components, asserted by
 * tests/test_fastkernel.py and tests/test_differential.py.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define DUAL_I_LOOP(CELL)                                             \
    do {                                                              \
        const CELL *N = (const CELL *)flat.buf;                       \
        for (i = 0; i < n; i++) {                                     \
            int64_t u = CU[i], v = CV[i];                             \
            int32_t a2 = S[v];                                        \
            int r = (u == v) || (S[u] <= a2 && a2 < E[u]);            \
            if (!r) {                                                 \
                int64_t z2 = Z[v];                                    \
                r = N[X[u] * ncols + z2] > N[Y[u] * ncols + z2];      \
            }                                                         \
            O[i] = (uint8_t)r;                                        \
        }                                                             \
    } while (0)

static PyObject *
eval_dual_i(PyObject *self, PyObject *args)
{
    Py_buffer cu, cv, starts, ends, lx, ly, lz, flat, out;
    Py_ssize_t ncols, cell;

    if (!PyArg_ParseTuple(args, "y*y*y*y*y*y*y*y*nnw*",
                          &cu, &cv, &starts, &ends, &lx, &ly, &lz,
                          &flat, &ncols, &cell, &out))
        return NULL;

    Py_ssize_t n = cu.len / (Py_ssize_t)sizeof(int64_t);
    if (cv.len != cu.len) {
        PyErr_Format(PyExc_ValueError,
                     "cu/cv length mismatch: %zd vs %zd bytes",
                     cu.len, cv.len);
        goto fail;
    }
    if (out.len < n) {
        PyErr_Format(PyExc_ValueError,
                     "answer buffer of %zd bytes cannot hold %zd "
                     "answers", out.len, n);
        goto fail;
    }
    if (cell != 1 && cell != 2 && cell != 4 && cell != 8) {
        PyErr_Format(PyExc_ValueError,
                     "TLC cell width must be 1, 2, 4 or 8 bytes, "
                     "got %zd", cell);
        goto fail;
    }

    {
        const int64_t *CU = (const int64_t *)cu.buf;
        const int64_t *CV = (const int64_t *)cv.buf;
        const int32_t *S = (const int32_t *)starts.buf;
        const int32_t *E = (const int32_t *)ends.buf;
        const int32_t *X = (const int32_t *)lx.buf;
        const int32_t *Y = (const int32_t *)ly.buf;
        const int32_t *Z = (const int32_t *)lz.buf;
        uint8_t *O = (uint8_t *)out.buf;
        Py_ssize_t i;

        Py_BEGIN_ALLOW_THREADS
        switch (cell) {
        case 1: DUAL_I_LOOP(uint8_t); break;
        case 2: DUAL_I_LOOP(uint16_t); break;
        case 4: DUAL_I_LOOP(uint32_t); break;
        default: DUAL_I_LOOP(int64_t); break;
        }
        Py_END_ALLOW_THREADS
    }

    PyBuffer_Release(&cu);
    PyBuffer_Release(&cv);
    PyBuffer_Release(&starts);
    PyBuffer_Release(&ends);
    PyBuffer_Release(&lx);
    PyBuffer_Release(&ly);
    PyBuffer_Release(&lz);
    PyBuffer_Release(&flat);
    PyBuffer_Release(&out);
    Py_RETURN_NONE;

fail:
    PyBuffer_Release(&cu);
    PyBuffer_Release(&cv);
    PyBuffer_Release(&starts);
    PyBuffer_Release(&ends);
    PyBuffer_Release(&lx);
    PyBuffer_Release(&ly);
    PyBuffer_Release(&lz);
    PyBuffer_Release(&flat);
    PyBuffer_Release(&out);
    return NULL;
}

static PyMethodDef methods[] = {
    {"eval_dual_i", eval_dual_i, METH_VARARGS,
     "eval_dual_i(cu, cv, starts, ends, label_x, label_y, label_z, "
     "flat_matrix, ncols, cell_bytes, out)\n\n"
     "Dual-I reachability per aligned component id into a uint8 "
     "buffer; int64 ids, int32 labels, TLC cells of cell_bytes "
     "bytes, GIL released."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_fastkernel",
    "Compiled Dual-I query loop (optional; see repro.core.fastkernel).",
    -1, methods,
};

PyMODINIT_FUNC
PyInit__fastkernel(void)
{
    return PyModule_Create(&module);
}
