"""Optional compiled event-drain loop (``SIM_KERNEL=c``).

The Python dispatch loop (:meth:`~repro.sim.engine.Simulator._drain`)
is already tight, but every iteration still pays interpreter overhead:
bytecode dispatch, frame bookkeeping, and boxed attribute traffic.  This
module compiles a C mirror of that exact loop on first use — the same
two heap entry shapes (a cancellable ``(time, priority, seq, event)``
and a posted ``(time, 0, seq, callback, args)``), same lazy-cancel skip,
same ``_live`` / ``_now`` / ``events_executed`` bookkeeping per event —
so the event stream it produces is digest-identical to the Python loop
by construction (see ``tests/test_speed_equivalence.py``).

Design constraints:

- **No new dependencies.**  The kernel is a single C translation unit
  compiled with the host toolchain (``cc``/``gcc``) against the running
  interpreter's headers; there is no setuptools build step.
- **Silently optional.**  :func:`load_kernel` raises on any failure (no
  compiler, no headers, self-check mismatch) and the engine's guarded
  import falls back to the Python loop.  A failed compile raises
  :class:`KernelBuildError`; anything else is a kernel fault.
- **Exact heap semantics.**  The C heap-pop yields the same pop *order*
  as :func:`heapq.heappop` for any valid heap: entry keys are unique
  (``seq`` is a global counter), so the sorted order — and therefore
  the dispatch order and the SimSan digest — is uniquely determined
  regardless of the internal sift variant.  Callbacks that
  ``schedule_at``/``post_at`` push with Python's ``heappush`` into the
  same list;
  both sides maintain the same heap invariant, so they interleave
  freely.

The compiled object lands in ``build/ckernel/`` under the repo root
(override with ``SIM_KERNEL_BUILD_DIR``), keyed by source hash and
interpreter tag so edits or interpreter switches trigger a rebuild.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import sysconfig
from typing import Any, Callable

_C_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* Attribute names, interned once at module init: the loop body would
 * otherwise rebuild a temporary unicode object for every
 * GetAttrString/SetAttrString call, several times per event. */
static PyObject *s_heap, *s_stopped, *s_live, *s_now, *s_executed;
static PyObject *s_cancelled, *s_on_cancel, *s_callback, *s_args;

/* Event attribute access, resolved once: Event uses __slots__, so its
 * attributes are member descriptors with fixed byte offsets into the
 * instance.  Cache the offsets from the first event's type and read
 * the slots as direct pointer loads; any other event type (or an
 * exotic descriptor layout) takes the generic PyObject_GetAttr path.
 */
static PyTypeObject *event_type = NULL;
static Py_ssize_t off_cancelled, off_on_cancel, off_callback, off_args;

static Py_ssize_t
member_offset(PyTypeObject *tp, PyObject *name)
{
    PyObject *descr = PyObject_GetAttr((PyObject *)tp, name);
    if (descr == NULL) {
        PyErr_Clear();
        return -1;
    }
    Py_ssize_t off = -1;
    if (Py_TYPE(descr) == &PyMemberDescr_Type) {
        PyMemberDef *def = ((PyMemberDescrObject *)descr)->d_member;
        if (def != NULL && def->type == T_OBJECT_EX)
            off = def->offset;
    }
    Py_DECREF(descr);
    return off;
}

static int
resolve_event_type(PyObject *event)
{
    PyTypeObject *tp = Py_TYPE(event);
    off_cancelled = member_offset(tp, s_cancelled);
    off_on_cancel = member_offset(tp, s_on_cancel);
    off_callback = member_offset(tp, s_callback);
    off_args = member_offset(tp, s_args);
    if (off_cancelled < 0 || off_on_cancel < 0 ||
        off_callback < 0 || off_args < 0)
        return 0;
    event_type = tp;  /* immortal enough: the Event class outlives runs */
    Py_INCREF((PyObject *)tp);
    return 1;
}

#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

/* Pop and return the smallest entry of a heapq-ordered list (new ref).
 * Classic sift-down: move the last element into the root slot, then
 * swap it downward with its smaller child until the heap invariant
 * holds.  heapq's C accelerator uses the sift-to-leaf variant; both
 * produce valid heaps, and with totally ordered unique keys the pop
 * order is identical. */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *last = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (--n == 0)
        return last;  /* heap emptied: the last element was the min */
    PyObject *min = PyList_GET_ITEM(heap, 0);
    Py_INCREF(min);
    Py_ssize_t pos = 0;
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n) {
            int r = PyObject_RichCompareBool(
                PyList_GET_ITEM(heap, child + 1),
                PyList_GET_ITEM(heap, child), Py_LT);
            if (r < 0)
                goto fail;
            if (r)
                child += 1;
        }
        int r = PyObject_RichCompareBool(
            PyList_GET_ITEM(heap, child), last, Py_LT);
        if (r < 0)
            goto fail;
        if (!r)
            break;
        PyObject *c = PyList_GET_ITEM(heap, child);
        Py_INCREF(c);
        PyList_SetItem(heap, pos, c);  /* steals c, releases old slot */
        pos = child;
    }
    Py_INCREF(last);
    PyList_SetItem(heap, pos, last);
    Py_DECREF(last);
    return min;
fail:
    Py_INCREF(last);
    PyList_SetItem(heap, pos, last);
    Py_DECREF(last);
    Py_DECREF(min);
    return NULL;
}

/* drain(sim, until) -- the Simulator._drain loop, compiled.
 *
 * Per dispatched event, in this exact order (matching the Python
 * loop statement for statement):
 *   pop -> _live -= 1 -> on_cancel = None -> _now = entry[0]
 *   -> events_executed += 1 -> callback(*args)
 * A posted 5-tuple (time, 0, seq, callback, args) has no event: no
 * cancel check and no on_cancel reset; its callback and args are the
 * entry's own fields.  Cancelled entries are popped and skipped
 * without touching counters (Simulator._note_cancel already adjusted
 * _live at cancel time).
 *
 * The simulator's mutable fields (_stopped, _live, _now,
 * events_executed) are plain instance attributes with no shadowing
 * data descriptors, so the loop reads and writes them through the
 * instance __dict__ directly -- PyDict_GetItemWithError on an interned
 * key instead of the full attribute protocol.  _stopped and _live are
 * re-read every iteration because callbacks mutate them (stop(),
 * schedule_at, post_at, _note_cancel).  Event attributes live in
 * __slots__ and go through PyObject_GetAttr/SetAttr.
 */
static PyObject *
drain(PyObject *self, PyObject *args)
{
    PyObject *sim, *until;
    if (!PyArg_ParseTuple(args, "OO:drain", &sim, &until))
        return NULL;
    PyObject *ns = PyObject_GetAttrString(sim, "__dict__");
    if (ns == NULL)
        return NULL;
    if (!PyDict_Check(ns)) {
        Py_DECREF(ns);
        PyErr_SetString(PyExc_TypeError, "sim.__dict__ must be a dict");
        return NULL;
    }
    PyObject *heap = PyDict_GetItemWithError(ns, s_heap);  /* borrowed */
    if (heap == NULL || !PyList_Check(heap)) {
        Py_DECREF(ns);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "sim._heap must be a list");
        return NULL;
    }
    Py_INCREF(heap);
    int has_until = (until != Py_None);

    for (;;) {
        if (PyList_GET_SIZE(heap) == 0)
            break;
        PyObject *stopped = PyDict_GetItemWithError(ns, s_stopped);
        if (stopped == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_AttributeError, "_stopped");
            goto fail;
        }
        int is_stopped = PyObject_IsTrue(stopped);
        if (is_stopped < 0)
            goto fail;
        if (is_stopped)
            break;

        PyObject *entry = PyList_GET_ITEM(heap, 0);  /* borrowed */
        Py_ssize_t entry_size =
            PyTuple_Check(entry) ? PyTuple_GET_SIZE(entry) : -1;
        if (entry_size != 4 && entry_size != 5) {
            PyErr_SetString(PyExc_TypeError,
                            "heap entries must be 4- or 5-tuples");
            goto fail;
        }
        int posted = (entry_size == 5);
        PyObject *event = NULL;  /* borrowed; NULL for a posted entry */
        int fast = 0;
        if (!posted) {
            event = PyTuple_GET_ITEM(entry, 3);
            if (event_type == NULL && !resolve_event_type(event)) {
                PyErr_SetString(PyExc_TypeError,
                                "event type lacks __slots__ members");
                goto fail;
            }
            fast = (Py_TYPE(event) == event_type);
            int is_cancelled;
            if (fast) {
                PyObject *c = SLOT(event, off_cancelled);
                if (c == Py_False)
                    is_cancelled = 0;
                else if (c == Py_True)
                    is_cancelled = 1;
                else
                    fast = 0;  /* unset or exotic value: generic path */
            }
            if (!fast) {
                PyObject *cancelled = PyObject_GetAttr(event, s_cancelled);
                if (cancelled == NULL)
                    goto fail;
                is_cancelled = PyObject_IsTrue(cancelled);
                Py_DECREF(cancelled);
                if (is_cancelled < 0)
                    goto fail;
            }
            if (is_cancelled) {
                PyObject *dead = heap_pop(heap);
                if (dead == NULL)
                    goto fail;
                Py_DECREF(dead);
                continue;
            }
        }

        PyObject *time_obj = PyTuple_GET_ITEM(entry, 0);  /* borrowed */
        if (has_until) {
            int r = PyObject_RichCompareBool(time_obj, until, Py_GT);
            if (r < 0)
                goto fail;
            if (r)
                break;
        }

        /* Pop returns the same entry object heap[0] held; keep it (and
         * through it the event and time) alive for the dispatch. */
        PyObject *popped = heap_pop(heap);
        if (popped == NULL)
            goto fail;
        if (!posted)
            event = PyTuple_GET_ITEM(popped, 3);
        time_obj = PyTuple_GET_ITEM(popped, 0);

        PyObject *live = PyDict_GetItemWithError(ns, s_live);
        if (live == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_AttributeError, "_live");
            Py_DECREF(popped);
            goto fail;
        }
        Py_ssize_t live_n = PyLong_AsSsize_t(live);
        PyObject *new_live;
        if ((live_n == -1 && PyErr_Occurred()) ||
            (new_live = PyLong_FromSsize_t(live_n - 1)) == NULL) {
            Py_DECREF(popped);
            goto fail;
        }
        if (PyDict_SetItem(ns, s_live, new_live) < 0) {
            Py_DECREF(new_live);
            Py_DECREF(popped);
            goto fail;
        }
        Py_DECREF(new_live);

        /* A posted entry has no on_cancel to disarm. */
        if (!posted && fast) {
            PyObject *old = SLOT(event, off_on_cancel);
            Py_INCREF(Py_None);
            SLOT(event, off_on_cancel) = Py_None;
            Py_XDECREF(old);
        }
        else if (!posted &&
                 PyObject_SetAttr(event, s_on_cancel, Py_None) < 0) {
            Py_DECREF(popped);
            goto fail;
        }
        if (PyDict_SetItem(ns, s_now, time_obj) < 0) {
            Py_DECREF(popped);
            goto fail;
        }

        PyObject *count = PyDict_GetItemWithError(ns, s_executed);
        if (count == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_AttributeError, "events_executed");
            Py_DECREF(popped);
            goto fail;
        }
        Py_ssize_t count_n = PyLong_AsSsize_t(count);
        PyObject *new_count;
        if ((count_n == -1 && PyErr_Occurred()) ||
            (new_count = PyLong_FromSsize_t(count_n + 1)) == NULL) {
            Py_DECREF(popped);
            goto fail;
        }
        if (PyDict_SetItem(ns, s_executed, new_count) < 0) {
            Py_DECREF(new_count);
            Py_DECREF(popped);
            goto fail;
        }
        Py_DECREF(new_count);

        PyObject *callback, *cb_args;
        if (posted) {
            callback = PyTuple_GET_ITEM(popped, 3);
            cb_args = PyTuple_GET_ITEM(popped, 4);
            Py_INCREF(callback);
            Py_INCREF(cb_args);
        } else if (fast) {
            callback = SLOT(event, off_callback);
            cb_args = SLOT(event, off_args);
            if (callback == NULL || cb_args == NULL) {
                Py_DECREF(popped);
                PyErr_SetString(PyExc_AttributeError,
                                "event callback/args unset");
                goto fail;
            }
            Py_INCREF(callback);
            Py_INCREF(cb_args);
        } else {
            callback = PyObject_GetAttr(event, s_callback);
            if (callback == NULL) {
                Py_DECREF(popped);
                goto fail;
            }
            cb_args = PyObject_GetAttr(event, s_args);
            if (cb_args == NULL) {
                Py_DECREF(callback);
                Py_DECREF(popped);
                goto fail;
            }
        }
        if (!PyTuple_Check(cb_args)) {
            Py_DECREF(cb_args);
            Py_DECREF(callback);
            Py_DECREF(popped);
            PyErr_SetString(PyExc_TypeError, "event args must be a tuple");
            goto fail;
        }
        /* Vectorcall straight off the args tuple's item array; the
         * tuple stays alive (and immutable) across the call. */
        PyObject *result = PyObject_Vectorcall(
            callback, ((PyTupleObject *)cb_args)->ob_item,
            (size_t)PyTuple_GET_SIZE(cb_args), NULL);
        Py_DECREF(cb_args);
        Py_DECREF(callback);
        Py_DECREF(popped);
        if (result == NULL)
            goto fail;
        Py_DECREF(result);
    }

    Py_DECREF(heap);
    Py_DECREF(ns);
    Py_RETURN_NONE;
fail:
    Py_DECREF(heap);
    Py_DECREF(ns);
    return NULL;
}

static PyMethodDef kernel_methods[] = {
    {"drain", drain, METH_VARARGS,
     "drain(sim, until) -- compiled Simulator._drain loop"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_simkernel",
    "Compiled discrete-event drain loop.", -1, kernel_methods,
};

PyMODINIT_FUNC
PyInit__simkernel(void)
{
    s_heap = PyUnicode_InternFromString("_heap");
    s_stopped = PyUnicode_InternFromString("_stopped");
    s_live = PyUnicode_InternFromString("_live");
    s_now = PyUnicode_InternFromString("_now");
    s_executed = PyUnicode_InternFromString("events_executed");
    s_cancelled = PyUnicode_InternFromString("cancelled");
    s_on_cancel = PyUnicode_InternFromString("on_cancel");
    s_callback = PyUnicode_InternFromString("callback");
    s_args = PyUnicode_InternFromString("args");
    if (!s_heap || !s_stopped || !s_live || !s_now || !s_executed ||
        !s_cancelled || !s_on_cancel || !s_callback || !s_args)
        return NULL;
    return PyModule_Create(&kernel_module);
}
"""


class KernelBuildError(RuntimeError):
    """The host could not compile the kernel (no compiler or headers)."""


def _build_dir() -> str:
    override = os.environ.get("SIM_KERNEL_BUILD_DIR")
    if override:
        return override
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "build", "ckernel")


def _compile(so_path: str) -> None:
    build = os.path.dirname(so_path)
    os.makedirs(build, exist_ok=True)
    c_path = so_path[: -len(".so")] + ".c"
    with open(c_path, "w", encoding="utf-8") as fh:
        fh.write(_C_SOURCE)
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    include = sysconfig.get_paths()["include"]
    tmp = so_path + ".tmp"
    cmd = [
        cc.split()[0], "-O2", "-shared", "-fPIC",
        f"-I{include}", c_path, "-o", tmp,
    ]
    try:
        subprocess.run(cmd, check=True, capture_output=True)
    except (OSError, subprocess.CalledProcessError) as exc:
        stderr = getattr(exc, "stderr", None) or b""
        raise KernelBuildError(
            f"cannot compile the kernel with {cmd[0]}: {exc} "
            f"{stderr.decode(errors='replace').strip()}"
        ) from exc
    os.replace(tmp, so_path)  # atomic: concurrent builders race safely


def _self_check(drain: Callable[[Any, Any], None]) -> None:
    """Run the kernel against a minimal fake simulator and verify the
    dispatch order, counters, and ``until`` cutoff match the Python
    loop's contract.  Any mismatch raises, which makes the engine's
    guarded import fall back to the Python loop."""
    from heapq import heappush

    # no import cycle: events != engine
    from repro.sim.events import Event, _event_counter

    class FakeSim:  # simlint: disable=SL014 (kernel contract requires __dict__)
        pass

    sim = FakeSim()
    sim._heap = []
    sim._stopped = False
    sim._live = 0
    sim._now = 0.0
    sim.events_executed = 0

    fired = []

    def record(tag):
        fired.append((sim._now, tag))

    # (time, tag, posted): "p" is a posted entry tied with the event
    # "c" and pushed after it, so it must fire second.
    order = [(2.0, "c", False), (0.5, "a", False), (1.0, "b", False),
             (2.0, "p", True), (3.5, "d", False)]
    events = {}
    for time, tag, posted in order:
        if posted:
            heappush(sim._heap, (time, 0, next(_event_counter), record, (tag,)))
        else:
            event = Event(time, record, (tag,), 0)
            heappush(sim._heap, (time, 0, event.seq, event))
            events[tag] = event
        sim._live += 1
    events["b"].cancel()  # no on_cancel hook on the fake: adjust by hand
    sim._live -= 1

    drain(sim, 3.0)
    if fired != [(0.5, "a"), (2.0, "c"), (2.0, "p")]:
        raise RuntimeError(f"kernel self-check: bad until-run order {fired!r}")
    if sim.events_executed != 3 or sim._live != 1 or sim._now != 2.0:
        raise RuntimeError("kernel self-check: bad counters after until-run")
    drain(sim, None)
    if fired[-1] != (3.5, "d") or sim._live != 0 or sim.events_executed != 4:
        raise RuntimeError("kernel self-check: bad full drain")
    if sim._heap:
        raise RuntimeError("kernel self-check: heap not drained")


def load_kernel() -> Callable[[Any, Any], None]:
    """Compile (or reuse) the C drain loop and return its callable.

    Raises on any failure so callers can fall back to the Python loop:
    :class:`KernelBuildError` when the host cannot compile it (missing
    compiler or headers), anything else when the kernel misbehaves (a
    self-check mismatch).
    """
    tag = hashlib.blake2s(_C_SOURCE.encode("utf-8"), digest_size=8).hexdigest()
    cache_tag = sys.implementation.cache_tag or "python"
    so_path = os.path.join(_build_dir(), f"_simkernel.{cache_tag}.{tag}.so")
    if not os.path.exists(so_path):
        _compile(so_path)
    loader = importlib.machinery.ExtensionFileLoader("_simkernel", so_path)
    spec = importlib.util.spec_from_file_location(
        "_simkernel", so_path, loader=loader
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    _self_check(module.drain)
    return module.drain
