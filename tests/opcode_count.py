"""Count the Python opcodes a call executes: a cost that host speed
cannot move.

``sys.settrace`` is called for every new Python frame, and for every
resume of a generator, so the hook below switches on ``f_trace_opcodes``
in each one and counts its ``opcode`` events. Work done inside C, numpy's
included, is not counted. Frames already running when the hook goes in
are not traced, apart from a generator that is resumed later.

    from opcode_count import count_opcodes
    opcodes, result = count_opcodes(run_scenario, cfg, 1)

The counts of one program differ between CPython minor versions, since
the compiler emits different opcodes; compare them only on one version.
"""

from __future__ import annotations

import sys
from typing import Any, Callable


def count_opcodes(fn: Callable[..., Any], *args, **kwargs) -> tuple[int, Any]:
    """Call ``fn(*args, **kwargs)``; return the opcodes its Python frames
    executed and its result. Any earlier trace hook is put back."""
    opcodes = 0

    def local(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.settrace(previous)
    return opcodes, result
