"""Columnar commit-trace representation.

The functional core commits tens of thousands of instructions per run;
holding each as a :class:`~repro.cpu.functional.TraceEntry` heap object
made every downstream pass (segmentation, timing replay, serialization)
pay per-object allocation and attribute-dispatch costs.  A
:class:`TraceColumns` keeps the same information as parallel columns:

* a **dense** program-counter column (one element per committed
  instruction), from which opcode, functional unit and fetch address are
  recovered through per-program static tables;
* a **sparse memory plane** — one row per instruction that produced a
  load-store-log record (loads, stores, atomics, bulk copies,
  non-repeatable reads) holding ``(index, addr, addr2, size, loaded,
  loaded2, stored, nonrep)`` with the same ``-1`` / ``None`` absence
  sentinels as ``TraceEntry``;
* a **sparse branch plane** — one row per *dynamically resolved* control
  transfer (conditional branches and JALR) holding ``(index, next_pc,
  taken)``.  JMP/HALT/fallthrough successors are static and are
  reconstructed from the program, so they occupy no trace storage;
* a ``bulks`` side table for BCOPY word tuples.

Rows are plain tuples while the trace is being built (list appends are
the cheapest thing the interpreter can do per commit); the packed form
(:meth:`to_payload` / :meth:`from_payload`) converts each column to a
little-endian fixed-width byte string with numpy.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.isa.instructions import OP_SPECS, Opcode

#: Presence bits of the packed memory-plane ``flags`` column.
HAS_ADDR = 1
HAS_ADDR2 = 2
HAS_LOADED = 4
HAS_LOADED2 = 8
HAS_STORED = 16
HAS_NONREP = 32
HAS_BULK = 64


_NP_DTYPES = {1: "u1", 2: "<u2", 4: "<u4", 8: "<u8"}


def pack_column(values, itemsize: int) -> bytes:
    """Pack unsigned ints into little-endian fixed-width bytes."""
    return np.asarray(values, dtype=_NP_DTYPES[itemsize]).tobytes()


def unpack_column(data: bytes, itemsize: int) -> list[int]:
    """Inverse of :func:`pack_column`; returns plain python ints."""
    return np.frombuffer(data, dtype=_NP_DTYPES[itemsize]).tolist()


def _static_next_table(program) -> list[tuple]:
    """Per-pc ``(kind, next_pc)`` for statically-known control flow.

    ``kind`` is 0 for fallthrough, 1 for JMP (taken, static target),
    2 for HALT (next_pc == pc), 3 for dynamically resolved transfers
    (conditional branches and JALR — these have branch-plane rows).
    """
    table = getattr(program, "_static_next_table", None)
    if table is None:
        table = []
        for pc, instr in enumerate(program.instructions):
            op = instr.op
            if op is Opcode.JMP:
                table.append((1, instr.target))
            elif op is Opcode.HALT:
                table.append((2, pc))
            elif OP_SPECS[op].is_branch:  # BEQ/BNE/BLT/BGE/JALR
                table.append((3, pc + 1))
            else:
                table.append((0, pc + 1))
        program._static_next_table = table
    return table


class TraceColumns:
    """Array-backed commit trace (see module docstring)."""

    __slots__ = ("pcs", "mem_rows", "br_rows", "bulks", "program")

    def __init__(self, program=None) -> None:
        self.pcs: list[int] = []
        #: (index, addr, addr2, size, loaded, loaded2, stored, nonrep)
        self.mem_rows: list[tuple] = []
        #: (index, next_pc, taken)
        self.br_rows: list[tuple] = []
        #: trace index -> BCOPY word tuple
        self.bulks: dict[int, tuple] = {}
        self.program = program

    # -- building (called from the functional core's commit path) ----------

    def mem(self, addr, addr2, size, loaded, loaded2, stored, nonrep) -> None:
        self.mem_rows.append((len(self.pcs) - 1, addr, addr2, size,
                              loaded, loaded2, stored, nonrep))

    def mem_bulk(self, src: int, dst: int, values: tuple) -> None:
        index = len(self.pcs) - 1
        self.mem_rows.append((index, src, dst, 8, None, None, None, None))
        self.bulks[index] = values

    def br(self, taken: bool, next_pc: int) -> None:
        self.br_rows.append((len(self.pcs) - 1, next_pc, taken))

    # -- container basics ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.pcs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceColumns):
            return NotImplemented
        return (self.pcs == other.pcs and self.mem_rows == other.mem_rows
                and self.br_rows == other.br_rows
                and self.bulks == other.bulks)

    __hash__ = None

    def extend(self, other: "TraceColumns") -> None:
        """Append ``other``'s trace, shifting its sparse row indices."""
        offset = len(self.pcs)
        self.pcs.extend(other.pcs)
        self.mem_rows.extend((row[0] + offset,) + row[1:]
                             for row in other.mem_rows)
        self.br_rows.extend((idx + offset, nxt, taken)
                            for idx, nxt, taken in other.br_rows)
        for idx, values in other.bulks.items():
            self.bulks[idx + offset] = values

    def class_counts(self, fu_names: list[str]) -> dict[str, int]:
        """Dynamic instruction counts per FU class.

        ``fu_names`` is the per-pc FU-name table.  Keys appear in
        first-dynamic-occurrence order, matching the per-entry
        accumulation the object path performed.
        """
        # The map runs at C speed (list.__getitem__ per pc) and Counter
        # keys preserve first-seen order, so the result matches the
        # per-entry accumulation of the object path exactly — same
        # counts, same first-dynamic-occurrence key order.
        return dict(Counter(map(fu_names.__getitem__, self.pcs)))

    # -- object-path interop ------------------------------------------------

    def entries(self, program=None) -> list:
        """Materialise the legacy ``list[TraceEntry]`` view."""
        from repro.cpu.functional import TraceEntry

        program = program or self.program
        if program is None:
            raise ValueError("TraceColumns has no program to rebuild from")
        instrs = program.instructions
        statics = _static_next_table(program)
        mem_rows = self.mem_rows
        br_rows = self.br_rows
        bulks = self.bulks
        n_mem = len(mem_rows)
        n_br = len(br_rows)
        mp = bp = 0
        out = []
        append = out.append
        for i, pc in enumerate(self.pcs):
            addr = addr2 = -1
            size = 0
            loaded = loaded2 = stored = nonrep = bulk = None
            if mp < n_mem and mem_rows[mp][0] == i:
                (_, addr, addr2, size,
                 loaded, loaded2, stored, nonrep) = mem_rows[mp]
                mp += 1
                bulk = bulks.get(i)
            kind, next_pc = statics[pc]
            taken = kind == 1
            if kind == 3 and bp < n_br and br_rows[bp][0] == i:
                _, next_pc, row_taken = br_rows[bp]
                taken = bool(row_taken)
                bp += 1
            append(TraceEntry(
                pc=pc, instr=instrs[pc], addr=addr, addr2=addr2, size=size,
                loaded=loaded, loaded2=loaded2, stored=stored, nonrep=nonrep,
                taken=taken, next_pc=next_pc, bulk=bulk,
            ))
        return out

    @classmethod
    def from_entries(cls, entries, program=None) -> "TraceColumns":
        """Build columns from a legacy ``list[TraceEntry]``."""
        cols = cls(program)
        pcs = cols.pcs
        mem_rows = cols.mem_rows
        br_rows = cols.br_rows
        for i, e in enumerate(entries):
            pcs.append(e.pc)
            if (e.addr != -1 or e.addr2 != -1 or e.loaded is not None
                    or e.stored is not None or e.nonrep is not None
                    or e.bulk is not None):
                mem_rows.append((i, e.addr, e.addr2, e.size,
                                 e.loaded, e.loaded2, e.stored, e.nonrep))
                if e.bulk is not None:
                    cols.bulks[i] = tuple(e.bulk)
            op = e.instr.op
            if op is Opcode.JALR or (OP_SPECS[op].is_branch
                                     and op is not Opcode.JMP):
                br_rows.append((i, e.next_pc, bool(e.taken)))
        return cols

    # -- packed (binary) form ----------------------------------------------

    def to_payload(self) -> dict:
        """Pack every column into little-endian byte strings.

        The result is cheap to pickle (process-pool handoff) and is the
        section body of the on-disk binary trace container
        (:mod:`repro.cpu.traceio`).
        """
        m_idx, m_flags, m_addr, m_addr2 = [], [], [], []
        m_size, m_loaded, m_loaded2, m_stored, m_nonrep = [], [], [], [], []
        bulks = self.bulks
        for row in self.mem_rows:
            idx, addr, addr2, size, loaded, loaded2, stored, nonrep = row
            flags = 0
            if addr != -1:
                flags |= HAS_ADDR
            if addr2 != -1:
                flags |= HAS_ADDR2
            if loaded is not None:
                flags |= HAS_LOADED
            if loaded2 is not None:
                flags |= HAS_LOADED2
            if stored is not None:
                flags |= HAS_STORED
            if nonrep is not None:
                flags |= HAS_NONREP
            if idx in bulks:
                flags |= HAS_BULK
            m_idx.append(idx)
            m_flags.append(flags)
            m_addr.append(addr if addr != -1 else 0)
            m_addr2.append(addr2 if addr2 != -1 else 0)
            m_size.append(size)
            m_loaded.append(loaded or 0)
            m_loaded2.append(loaded2 or 0)
            m_stored.append(stored or 0)
            m_nonrep.append(nonrep or 0)
        bulk_idx = sorted(bulks)
        bulk_lens = [len(bulks[i]) for i in bulk_idx]
        bulk_data: list[int] = []
        for i in bulk_idx:
            bulk_data.extend(bulks[i])
        return {
            "n": len(self.pcs),
            "pcs": pack_column(self.pcs, 4),
            "m_idx": pack_column(m_idx, 4),
            "m_flags": pack_column(m_flags, 1),
            "m_addr": pack_column(m_addr, 8),
            "m_addr2": pack_column(m_addr2, 8),
            "m_size": pack_column(m_size, 1),
            "m_loaded": pack_column(m_loaded, 8),
            "m_loaded2": pack_column(m_loaded2, 8),
            "m_stored": pack_column(m_stored, 8),
            "m_nonrep": pack_column(m_nonrep, 8),
            "b_idx": pack_column([r[0] for r in self.br_rows], 4),
            "b_next": pack_column([r[1] for r in self.br_rows], 4),
            "b_taken": pack_column([1 if r[2] else 0
                                    for r in self.br_rows], 1),
            "k_idx": pack_column(bulk_idx, 4),
            "k_lens": pack_column(bulk_lens, 2),
            "k_data": pack_column(bulk_data, 8),
        }

    @classmethod
    def from_payload(cls, payload: dict, program=None) -> "TraceColumns":
        """Inverse of :meth:`to_payload`."""
        cols = cls(program)
        cols.pcs = unpack_column(payload["pcs"], 4)
        if len(cols.pcs) != payload["n"]:
            raise ValueError("trace payload length mismatch")
        m_idx = unpack_column(payload["m_idx"], 4)
        m_flags = unpack_column(payload["m_flags"], 1)
        m_addr = unpack_column(payload["m_addr"], 8)
        m_addr2 = unpack_column(payload["m_addr2"], 8)
        m_size = unpack_column(payload["m_size"], 1)
        m_loaded = unpack_column(payload["m_loaded"], 8)
        m_loaded2 = unpack_column(payload["m_loaded2"], 8)
        m_stored = unpack_column(payload["m_stored"], 8)
        m_nonrep = unpack_column(payload["m_nonrep"], 8)
        mem_rows = cols.mem_rows
        for j, idx in enumerate(m_idx):
            flags = m_flags[j]
            mem_rows.append((
                idx,
                m_addr[j] if flags & HAS_ADDR else -1,
                m_addr2[j] if flags & HAS_ADDR2 else -1,
                m_size[j],
                m_loaded[j] if flags & HAS_LOADED else None,
                m_loaded2[j] if flags & HAS_LOADED2 else None,
                m_stored[j] if flags & HAS_STORED else None,
                m_nonrep[j] if flags & HAS_NONREP else None,
            ))
        b_idx = unpack_column(payload["b_idx"], 4)
        b_next = unpack_column(payload["b_next"], 4)
        b_taken = unpack_column(payload["b_taken"], 1)
        cols.br_rows = [(b_idx[j], b_next[j], bool(b_taken[j]))
                        for j in range(len(b_idx))]
        bulk_idx = unpack_column(payload["k_idx"], 4)
        bulk_lens = unpack_column(payload["k_lens"], 2)
        bulk_data = unpack_column(payload["k_data"], 8)
        pos = 0
        for j, idx in enumerate(bulk_idx):
            count = bulk_lens[j]
            cols.bulks[idx] = tuple(bulk_data[pos:pos + count])
            pos += count
        return cols
