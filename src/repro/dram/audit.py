"""Streaming JEDEC command-stream auditor.

The controller's whole output is a schedule of ACT/PRE/RD/WR commands; the
paper's headline metrics (row-buffer hit rate, bandwidth utilization, the
Fig. 8-10 speedups) are computed from it, so a schedule that silently
violates a timing constraint produces optimistically wrong results rather
than a crash.  :class:`CommandAuditor` is the model's substitute for a
cycle-accurate simulator's assertion machinery: it attaches to any
:class:`~repro.dram.controller.MemoryController` through the controller's
``command_observers`` hook and checks every constraint the model claims to
honour, online, as commands are emitted:

* per bank — tRCD (ACT to column), tRAS (ACT to PRE), tRP (PRE to ACT),
  tRC (ACT to ACT), tRTP (read to PRE), tWR write recovery (WR data end to
  PRE), plus protocol consistency: no ACT on an open bank, no PRE or
  column command on a closed bank, column row must match the open row;
* per rank — tRRD_S/L activate spacing and the tFAW four-activate window
  (these are *rank*-scoped: banks in different ranks of one channel do not
  constrain each other);
* per channel — tCCD_S/L column spacing with read<->write turnaround, and
  data-bus burst overlap (a burst may not begin before the previous one's
  last beat).

Violations are recorded as structured :class:`Violation` records carrying
both commands and the failed rule, instead of a bare assert; ``strict=True``
raises :class:`TimingViolationError` on the first one.  One auditor can
watch any number of controllers — all state is keyed by full
(channel, rank, bankgroup, bank) coordinates — so a single instance audits
a whole :class:`~repro.dram.system.DRAMSystem`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.common.config import DDR4Timing

#: Commands whose data burst occupies the channel data bus.
_COLUMN_KINDS = ("RD", "WR")


@dataclass(frozen=True)
class Command:
    """One DRAM command as seen by the auditor."""

    kind: str                            # "ACT" | "PRE" | "RD" | "WR"
    cycle: int
    bank: tuple[int, int, int, int]      # (channel, rank, bankgroup, bank)
    row: int

    @property
    def channel(self) -> int:
        return self.bank[0]

    @property
    def rank(self) -> tuple[int, int]:
        """Rank scope key: tRRD/tFAW never cross channels or ranks."""
        return (self.bank[0], self.bank[1])

    @property
    def bankgroup(self) -> int:
        return self.bank[2]

    def __str__(self) -> str:
        ch, rk, bg, bk = self.bank
        return (f"{self.kind}@{self.cycle} "
                f"ch{ch}/rk{rk}/bg{bg}/bk{bk} row {self.row}")


@dataclass(frozen=True)
class Violation:
    """One failed constraint, with both commands for context."""

    rule: str                 # e.g. "tWR", "tFAW", "row-mismatch"
    command: Command          # the offending command
    prior: Command | None     # the earlier command the constraint is against
    required: int             # minimum legal separation in cycles
    actual: int               # observed separation

    @property
    def slack(self) -> int:
        """How many cycles early the command issued (negative = legal)."""
        return self.required - self.actual

    def __str__(self) -> str:
        msg = f"{self.rule}: {self.command}"
        if self.prior is not None:
            msg += (f" only {self.actual} cycles after {self.prior}"
                    f" (needs {self.required})")
        return msg


class TimingViolationError(AssertionError):
    """Raised by a strict auditor; carries the structured violation."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(str(violation))
        self.violation = violation


@dataclass
class _BankAudit:
    """Per-bank constraint state."""

    open_row: int | None = None
    last_act: int | None = None
    last_pre: int | None = None
    # Column commands since the last ACT: (cycle, kind) pairs, consumed by
    # the tRTP/tWR checks when the bank is next precharged.
    cols: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class _RankAudit:
    """Per-rank activate pacing (tRRD, tFAW) and refresh state."""

    last_act: Command | None = None
    act_window: deque = field(default_factory=lambda: deque(maxlen=4))
    last_ref: Command | None = None
    ref_end: int | None = None      # cycle the last REF's tRFC recovery ends
    window_start: int | None = None  # first cycle seen (pre-first-REF base)


@dataclass
class _ChannelAudit:
    """Per-channel column/data-bus state (tCCD, turnaround, bursts)."""

    last_col: Command | None = None
    data_end: int | None = None   # cycle the previous burst's last beat ends
    history: deque = field(default_factory=lambda: deque(maxlen=8))


class CommandAuditor:
    """Online legality checker for a DRAM command stream.

    Parameters
    ----------
    timing:
        The :class:`DDR4Timing` the stream must satisfy.  When attaching to
        a controller with :meth:`attach`, defaults to that controller's
        timing.
    strict:
        Raise :class:`TimingViolationError` on the first violation instead
        of recording it.
    max_recorded:
        Cap on stored :class:`Violation` records (the count in
        ``violation_count`` is never capped).
    """

    def __init__(self, timing: DDR4Timing | None = None, *,
                 strict: bool = False, max_recorded: int = 256,
                 refresh: bool = True) -> None:
        self.timing = timing or DDR4Timing()
        self._timing_explicit = timing is not None
        self.strict = strict
        self.max_recorded = max_recorded
        #: When True, enforce the refresh rules: REF needs all banks of its
        #: rank precharged (tRP after the closing PREs), ACTs must clear the
        #: tRFC recovery, and no rank may go 9 x tREFI without a REF (the
        #: JEDEC maximum-postponement window).  Disable when auditing a
        #: stream from a model with refresh off.
        self.refresh = refresh
        self.violations: list[Violation] = []
        self.violation_count = 0
        self.commands_seen = 0
        self._banks: dict[tuple, _BankAudit] = {}
        self._ranks: dict[tuple, _RankAudit] = {}
        self._channels: dict[int, _ChannelAudit] = {}

    # ------------------------------------------------------------- wiring

    def attach(self, controller) -> "CommandAuditor":
        """Subscribe to a controller's command stream; returns ``self``."""
        if not self._timing_explicit:
            self.timing = controller.timing
            self._timing_explicit = True
        controller.command_observers.append(self.observe)
        return self

    def check_log(self, log) -> "CommandAuditor":
        """Replay recorded ``(kind, cycle, bank, row)`` commands."""
        for kind, cycle, bank, row in log:
            self.observe(kind, cycle, bank, row)
        return self

    # ------------------------------------------------------------- checks

    def observe(self, kind: str, cycle: int, bank: tuple, row: int) -> None:
        """Observer-hook entry point: audit one command."""
        cmd = Command(kind, cycle, tuple(bank), row)
        self.commands_seen += 1
        if self.refresh:
            self._check_refresh_window(cmd)
        if kind == "ACT":
            self._check_act(cmd)
        elif kind == "PRE":
            self._check_pre(cmd)
        elif kind in _COLUMN_KINDS:
            self._check_col(cmd)
        elif kind == "REF":
            self._check_ref(cmd)
        else:
            self._fail("unknown-command", cmd, None, 0, 0)
        self._channel(cmd.channel).history.append(cmd)

    __call__ = observe

    def _bank(self, key: tuple) -> _BankAudit:
        state = self._banks.get(key)
        if state is None:
            state = self._banks[key] = _BankAudit()
        return state

    def _rank(self, key: tuple) -> _RankAudit:
        state = self._ranks.get(key)
        if state is None:
            state = self._ranks[key] = _RankAudit()
        return state

    def _channel(self, key: int) -> _ChannelAudit:
        state = self._channels.get(key)
        if state is None:
            state = self._channels[key] = _ChannelAudit()
        return state

    def _check_act(self, cmd: Command) -> None:
        T = self.timing
        bank = self._bank(cmd.bank)
        if bank.open_row is not None:
            self._fail("act-on-open-bank", cmd, None, 0, 0)
        if bank.last_act is not None:
            self._require("tRC", cmd, bank.last_act, T.tRC, cmd.bank)
        if bank.last_pre is not None:
            self._require("tRP", cmd, bank.last_pre, T.tRP, cmd.bank)
        rank = self._rank(cmd.rank)
        if rank.last_act is not None:
            same_bg = rank.last_act.bankgroup == cmd.bankgroup
            need = T.tRRD_L if same_bg else T.tRRD_S
            self._require("tRRD_L" if same_bg else "tRRD_S",
                          cmd, rank.last_act.cycle, need,
                          prior=rank.last_act)
        if len(rank.act_window) == 4:
            self._require("tFAW", cmd, rank.act_window[0], T.tFAW,
                          cmd.bank)
        if rank.last_ref is not None:
            self._require("tRFC", cmd, rank.last_ref.cycle, T.tRFC,
                          prior=rank.last_ref)
        bank.open_row = cmd.row
        bank.last_act = cmd.cycle
        bank.cols = []
        rank.last_act = cmd
        rank.act_window.append(cmd.cycle)

    def _check_refresh_window(self, cmd: Command) -> None:
        """No rank may run longer than 9 x tREFI without a REF.

        DDR4 permits postponing up to eight REF commands, so the maximum
        legal REF-to-REF (or stream-start-to-first-REF) gap is nine refresh
        intervals.  The base is the rank's last REF, or the first command
        the auditor saw on the rank before any REF.
        """
        rank = self._rank(cmd.rank)
        if rank.window_start is None:
            rank.window_start = cmd.cycle
            return
        base_cmd = rank.last_ref
        base = base_cmd.cycle if base_cmd is not None else rank.window_start
        limit = 9 * self.timing.tREFI
        if cmd.cycle - base > limit:
            self._fail("tREFI-window", cmd, base_cmd, limit,
                       cmd.cycle - base)
            # Re-arm from here so one missing REF is one violation, not one
            # per subsequent command.
            rank.window_start = cmd.cycle
            rank.last_ref = None

    def _check_ref(self, cmd: Command) -> None:
        """All-bank REF: rank fully precharged (tRP honoured) and clear of
        the previous REF's tRFC recovery."""
        T = self.timing
        rank = self._rank(cmd.rank)
        if rank.ref_end is not None:
            self._require("tRFC", cmd, rank.last_ref.cycle, T.tRFC,
                          prior=rank.last_ref)
        for key, bank in self._banks.items():
            if (key[0], key[1]) != cmd.rank:
                continue
            if bank.open_row is not None:
                self._fail("ref-on-open-bank", cmd, None, 0, 0)
            if bank.last_pre is not None:
                self._require("tRP", cmd, bank.last_pre, T.tRP, key)
        rank.last_ref = cmd
        rank.ref_end = cmd.cycle + T.tRFC

    def _check_pre(self, cmd: Command) -> None:
        T = self.timing
        bank = self._bank(cmd.bank)
        if bank.open_row is None:
            # The model only precharges to close an open row; a PRE to an
            # idle bank means controller state and schedule disagree.
            self._fail("pre-on-closed-bank", cmd, None, 0, 0)
        if bank.last_act is not None:
            self._require("tRAS", cmd, bank.last_act, T.tRAS, cmd.bank)
        for col_cycle, col_kind in bank.cols:
            if col_kind == "RD":
                self._require("tRTP", cmd, col_cycle, T.tRTP, cmd.bank)
            else:
                self._require("tWR", cmd, col_cycle,
                              T.tCWL + T.tBL + T.tWR, cmd.bank)
        bank.open_row = None
        bank.last_pre = cmd.cycle
        bank.cols = []

    def _check_col(self, cmd: Command) -> None:
        T = self.timing
        bank = self._bank(cmd.bank)
        if bank.open_row is None:
            self._fail("col-on-closed-bank", cmd, None, 0, 0)
        elif bank.open_row != cmd.row:
            self._fail("row-mismatch", cmd, None, bank.open_row, cmd.row)
        if bank.last_act is not None:
            self._require("tRCD", cmd, bank.last_act, T.tRCD, cmd.bank)
        chan = self._channel(cmd.channel)
        if chan.last_col is not None:
            same_bg = chan.last_col.bankgroup == cmd.bankgroup
            need = T.tCCD_L if same_bg else T.tCCD_S
            rule = "tCCD_L" if same_bg else "tCCD_S"
            if chan.last_col.kind != cmd.kind:
                # Read<->write turnaround: the model spaces direction
                # switches by tCCD_L regardless of bank group.
                need = max(need, T.tCCD_L)
                rule = "turnaround"
            self._require(rule, cmd, chan.last_col.cycle, need,
                          prior=chan.last_col)
        latency = T.tCWL if cmd.kind == "WR" else T.tCL
        burst_start = cmd.cycle + latency
        if chan.data_end is not None and burst_start < chan.data_end:
            self._fail("data-bus-overlap", cmd, chan.last_col,
                       chan.data_end, burst_start)
        chan.data_end = burst_start + T.tBL
        chan.last_col = cmd
        bank.cols.append((cmd.cycle, cmd.kind))

    def _require(self, rule: str, cmd: Command, since: int, need: int,
                 bank: tuple | None = None,
                 prior: Command | None = None) -> None:
        gap = cmd.cycle - since
        if gap < need:
            if prior is None and bank is not None:
                prior = self._last_in_history(cmd.channel, since, bank)
            self._fail(rule, cmd, prior, need, gap)

    def _last_in_history(self, channel: int, cycle: int,
                         bank: tuple) -> Command | None:
        for cmd in reversed(self._channel(channel).history):
            if cmd.cycle == cycle and cmd.bank == bank:
                return cmd
        return None

    def _fail(self, rule: str, cmd: Command, prior: Command | None,
              required: int, actual: int) -> None:
        violation = Violation(rule, cmd, prior, required, actual)
        if self.strict:
            raise TimingViolationError(violation)
        self.violation_count += 1
        if len(self.violations) < self.max_recorded:
            self.violations.append(violation)

    # ------------------------------------------------------------- results

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def assert_clean(self) -> None:
        """Fail loudly (with context) if any violation was recorded."""
        if not self.ok:
            raise TimingViolationError(self.violations[0])

    def report(self, limit: int = 20) -> str:
        """Human-readable summary of the audit."""
        lines = [f"audited {self.commands_seen} commands: "
                 f"{self.violation_count} violation(s)"]
        for v in self.violations[:limit]:
            lines.append(f"  {v}")
        if self.violation_count > limit:
            lines.append(f"  ... and {self.violation_count - limit} more")
        return "\n".join(lines)


def audit_log(log, timing: DDR4Timing | None = None,
              strict: bool = False) -> list[Violation]:
    """Check a recorded command log; returns the violations found."""
    auditor = CommandAuditor(timing, strict=strict)
    auditor.check_log(log)
    return auditor.violations
