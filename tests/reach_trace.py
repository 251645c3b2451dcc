"""The ``sys.settrace`` hook of ``test_reachability``, in a module of its own
that imports nothing from opdisc, so that a fresh interpreter can install it
before ``import opdisc.cli``::

    python tests/reach_trace.py SRC

prints what that import enters and runs in the package directory ``SRC``,
as :meth:`Trace.log` lays it out.
"""

import dis
import json
import os
import sys
import zlib

# the conditional jumps: each has a taken and a fall-through successor
JUMPS = frozenset(op for name, op in dis.opmap.items() if "JUMP" in name and "_IF_" in name)


def code_key(code) -> tuple:
    """A code object's name that holds across interpreters: two
    comprehensions on one line differ only in their column positions."""
    positions = zlib.crc32(repr(list(code.co_positions())).encode())
    return code.co_filename, code.co_firstlineno, code.co_qualname, positions


def jump_sites(code) -> frozenset:
    """The offsets at which a conditional jump of ``code`` reports its
    opcode event: a jump's own, or that of the ``EXTENDED_ARG`` that widens
    it, since the instruction after one is not traced on its own."""
    sites, lead = set(), None
    for ins in dis.get_instructions(code):
        if ins.opname == "EXTENDED_ARG":
            lead = ins.offset if lead is None else lead
            continue
        if ins.opcode in JUMPS:
            sites.add(ins.offset if lead is None else lead)
        lead = None
    return frozenset(sites)


class Trace:
    """Keeps the code objects entered, the ``(file, line)`` line events
    fired and, per code object, the ``(from, to)`` offsets of each step out
    of a conditional jump, all in the package directory ``src``."""

    def __init__(self, src: str) -> None:
        self.src, self.entered, self.fired, self.edges = src, set(), set(), {}
        self._ours, self._sites = {}, {}

    def __call__(self, frame, event, arg):
        code = frame.f_code
        ours = self._ours.get(code.co_filename)
        if ours is None:
            where = os.path.dirname(os.path.realpath(code.co_filename))
            ours = self._ours[code.co_filename] = where == self.src
        if not ours:
            return None
        self.entered.add(code)
        sites = self._sites.get(code)
        if sites is None:
            sites = self._sites[code] = jump_sites(code)
        fired, edges, last = self.fired, self.edges.setdefault(code, set()), None
        frame.f_trace_opcodes = True

        def local(frame, event, arg):
            nonlocal last
            if event == "opcode":
                at = frame.f_lasti
                if last in sites:
                    edges.add((last, at))
                last = at
            elif event == "line":
                fired.add((code.co_filename, frame.f_lineno))
            return local

        return local

    def log(self) -> list:
        """``[entered, fired, edges]``: the key of each code object entered,
        each fired ``[file, line]`` and ``[key, [[from, to], ...]]`` per code
        object with a step out of a jump."""
        return [
            [code_key(code) for code in self.entered],
            sorted(self.fired),
            [[code_key(code), sorted(pairs)] for code, pairs in self.edges.items() if pairs],
        ]


if __name__ == "__main__":
    trace = Trace(os.path.realpath(sys.argv[1]))
    sys.settrace(trace)
    import opdisc.cli  # noqa: E402,F401

    sys.settrace(None)
    print(json.dumps(trace.log()))
