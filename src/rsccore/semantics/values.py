"""Runtime values, heaps, call frames, and the primitive operations shared
by both interpreters (so the two machines cannot drift on builtin
behavior).  The integer operators and strict equality defined here are
also the meaning the predicate evaluator, the constant folder and the
solver give them."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Union

from ..syntax import (
    EClosure, EConst, NULL, PRIM_TAG, UNDEFINED, base_of_value, literal_str,
)


@dataclass(frozen=True)
class VLoc:
    loc: int


@dataclass(frozen=True)
class VClosure:
    fname: str
    caps: tuple


Value = Union[int, bool, str, type(UNDEFINED), type(NULL), VLoc, VClosure]


@dataclass
class HObj:
    cname: str
    fields: dict


@dataclass
class HArr:
    elems: list


@dataclass
class HClassObj:
    cname: str


HeapObject = Union[HObj, HArr, HClassObj]


class Heap:
    def __init__(self):
        self.cells: dict[int, HeapObject] = {}
        self.next_loc = 0

    def alloc(self, obj: HeapObject) -> VLoc:
        loc = self.next_loc
        self.next_loc += 1
        self.cells[loc] = obj
        return VLoc(loc)

    def __getitem__(self, loc: int) -> HeapObject:
        return self.cells[loc]

    def __contains__(self, loc: int) -> bool:
        return loc in self.cells


def deref(heap: Heap, v: Value, kind: type):
    """The heap cell of class `kind` that `v` points at, or None."""
    if isinstance(v, VLoc):
        obj = heap.cells.get(v.loc)
        if isinstance(obj, kind):
            return obj
    return None


class StuckError(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


MISSING = object()


def val_of(e) -> object:
    """The value expression node `e` denotes, or MISSING if it still has
    to be evaluated."""
    if isinstance(e, EConst):
        return e.value
    if isinstance(e, EClosure):
        caps = []
        for c in e.captures:
            v = val_of(c)
            if v is MISSING:
                return MISSING
            caps.append(v)
        return VClosure(e.fname, tuple(caps))
    return MISSING


def mk_val(v: Value) -> EConst:
    return EConst(v, nid=0)


def call_frame(params: list, argv: list,
               this: Optional[Value] = None, ncaps: int = 0) -> dict:
    """A callee's variables: each parameter bound to its argument, or to
    undefined when the call supplies too few; then `this` for a method or
    constructor, and the argument count, less a closure's `ncaps` captures."""
    frame = dict(zip(params, argv))
    for p in params[len(argv):]:
        frame[p] = UNDEFINED
    if this is not None:
        frame["this"] = this
    frame["#argc"] = len(argv) - ncaps
    return frame


def inject_value(a, heap: Heap) -> Value:
    """Convert a host literal (int/bool/str/None/list) into a runtime
    value, allocating arrays on the heap."""
    if isinstance(a, list):
        return heap.alloc(HArr([inject_value(x, heap) for x in a]))
    if a is None:
        return UNDEFINED
    return a


def value_str(v: Value, heap: Optional[Heap] = None) -> str:
    if isinstance(v, VLoc):
        if heap is not None and v.loc in heap:
            obj = heap[v.loc]
            if isinstance(obj, HArr):
                return "[%s]" % ", ".join(value_str(e, heap)
                                          for e in obj.elems)
            if isinstance(obj, HObj):
                fs = ", ".join(f"{k}: {value_str(w, heap)}"
                               for k, w in obj.fields.items())
                return f"{obj.cname} {{{fs}}}"
            return f"<class {obj.cname}>"
        return f"<loc {v.loc}>"
    if isinstance(v, VClosure):
        return f"<function {v.fname}>"
    return literal_str(v)


def type_tag(v: Value) -> str:
    if isinstance(v, VClosure):
        return "function"
    if isinstance(v, VLoc):
        return "object"
    return PRIM_TAG[base_of_value(v).name]


def _num(v: Value, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise StuckError(f"{what} applied to non-number {value_str(v)}")
    return v


def _bool(v: Value, what: str) -> bool:
    if not isinstance(v, bool):
        raise StuckError(f"{what} applied to non-boolean {value_str(v)}")
    return v


def js_div(a: int, b: int) -> int:
    if b == 0:
        raise StuckError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def js_mod(a: int, b: int) -> int:
    if b == 0:
        raise StuckError("modulo by zero")
    return a - js_div(a, b) * b


# the integer operators, keyed by logic operator name
ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
         "div": js_div, "mod": js_mod}
COMPARE = {"lt": operator.lt, "le": operator.le, "gt": operator.gt,
           "ge": operator.ge}

# source operator -> logic operator
_OP_NAMES = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
             "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}


def values_equal(a: Value, b: Value) -> bool:
    """Strict equality: a boolean never equals a number, and closures are
    equal when their functions and their captures, one by one, are."""
    if isinstance(a, VClosure) and isinstance(b, VClosure):
        return a.fname == b.fname and len(a.caps) == len(b.caps) and \
            all(map(values_equal, a.caps, b.caps))
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    return a == b


def value_key(v: Value) -> tuple:
    """A key two values share exactly when they are the same value of the
    same type, down to each capture of a closure: unlike `==`, 1 and true
    get different keys."""
    if isinstance(v, VClosure):
        return (VClosure, v.fname, tuple(map(value_key, v.caps)))
    return (v.__class__, v)


def apply_builtin(name: str, args: list, heap: Heap) -> Value:
    """Primitive reduction shared by both machines; raises StuckError when
    no rule applies."""
    if name == "get":
        arr = _array(args[0], heap, "array read")
        i = _num(args[1], "array index")
        if not 0 <= i < len(arr.elems):
            raise StuckError(f"array read out of bounds: index {i},"
                             f" length {len(arr.elems)}")
        return arr.elems[i]
    if name == "set":
        arr = _array(args[0], heap, "array write")
        i = _num(args[1], "array index")
        if not 0 <= i < len(arr.elems):
            raise StuckError(f"array write out of bounds: index {i},"
                             f" length {len(arr.elems)}")
        arr.elems[i] = args[2]
        return UNDEFINED
    if name == "length":
        arr = _array(args[0], heap, "length")
        return len(arr.elems)
    if name == "slice":
        arr = _array(args[0], heap, "slice")
        s = _num(args[1], "slice start")
        if not 0 <= s <= len(arr.elems):
            raise StuckError(f"slice start out of range: {s}")
        return heap.alloc(HArr(list(arr.elems[s:])))
    if name == "newarray#":
        n = _num(args[0], "Array length")
        if n < 0:
            raise StuckError(f"negative array length {n}")
        return heap.alloc(HArr([0] * n))
    if name == "arraylit#":
        return heap.alloc(HArr(list(args)))
    if name == "assert":
        if args[0] is not True:
            raise StuckError("assertion failed")
        return UNDEFINED
    if name == "typeof":
        return type_tag(args[0])
    if name in _OP_NAMES:
        a = _num(args[0], f"operator {name}")
        b = _num(args[1], f"operator {name}")
        op = _OP_NAMES[name]
        return (ARITH.get(op) or COMPARE[op])(a, b)
    if name == "neg":
        return -_num(args[0], "negation")
    if name in ("===", "=="):
        return values_equal(args[0], args[1])
    if name in ("!==", "!="):
        return not values_equal(args[0], args[1])
    if name == "&&":
        return _bool(args[0], "&&") and _bool(args[1], "&&")
    if name == "||":
        return _bool(args[0], "||") or _bool(args[1], "||")
    if name == "!":
        return not _bool(args[0], "!")
    raise StuckError(f"unknown builtin {name!r}")


def _array(v: Value, heap: Heap, what: str) -> HArr:
    arr = deref(heap, v, HArr)
    if arr is None:
        raise StuckError(f"{what} on non-array {value_str(v)}")
    return arr
