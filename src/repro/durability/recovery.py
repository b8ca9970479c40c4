"""Crash recovery: newest valid checkpoint + WAL-suffix replay.

The recovery contract is *epoch-exact*: a process killed after publishing
epoch ``E`` (with every batch durable in the WAL) recovers to an engine at
exactly epoch ``E`` whose uid set and query answers match a never-crashed
one — because each WAL batch replays through the same ``apply_many`` path
that produced the original epoch, starting from a checkpoint that names
precisely which WAL prefix it already folds in.

A durability directory has one layout::

    <root>/
      wal/           wal-00000001.seg ...   (repro.durability.wal)
      checkpoints/   ckpt-0000000000/ ...   (repro.durability.checkpoint)

Every recovery — a single :class:`~repro.engine.SpatialEngine`
(:func:`recover_engine`) or a :class:`~repro.service.ShardedEngine`, at the
pre-crash epoch or time-travelled to any epoch at or after the oldest
checkpoint — runs through one function, and every writable reopen through
one more that guards the durable tip before reattaching the WAL.  Both are
reached through :func:`repro.open`.  Torn WAL tails and corrupt records
are tolerated — recovery lands on the last *durable* batch instead of
raising.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.durability.checkpoint import latest_checkpoint, latest_manifest, write_checkpoint
from repro.durability.wal import WriteAheadLog, read_wal
from repro.engine.engine import SpatialEngine
from repro.errors import DurabilityError
from repro.objects import SpatialObject

__all__ = [
    "Recovery",
    "wal_path",
    "checkpoints_path",
    "durable_tip",
    "recover_engine",
    "checkpoint_engine",
    "checkpoint_sharded",
]


def wal_path(root: str | Path) -> Path:
    """Where the write-ahead log lives inside a durability directory."""
    return Path(root) / "wal"


def checkpoints_path(root: str | Path) -> Path:
    """Where the checkpoints live inside a durability directory."""
    return Path(root) / "checkpoints"


def durable_tip(root: str | Path) -> tuple[int, int]:
    """``(anchor_seq, tip_seq)`` of a durability directory, read-only.

    The anchor is the *newest* validating checkpoint's ``wal_seq`` — the
    only safe position to anchor destructive tail repair at: under an
    older (time-travel-selected) checkpoint's anchor, mid-history damage
    the newest checkpoint already folds in reads as an unresolved torn
    tail and repair would truncate away acknowledged durable batches.
    The tip is the last durable batch seq (equal to the epoch under the
    durability layout's seq-equals-epoch invariant), never below the
    anchor even when the WAL prefix has been pruned.  Nothing on disk is
    modified.
    """
    anchor = latest_manifest(checkpoints_path(root)).wal_seq
    scan = read_wal(wal_path(root), anchor_seq=anchor, decode=False)
    return anchor, max(scan.last_seq, anchor)


@dataclass
class Recovery:
    """One recovery outcome: the rebuilt engine and how it was reached."""

    engine: Any  # SpatialEngine or ShardedEngine
    checkpoint_epoch: int
    checkpoint_wal_seq: int  # the WAL anchor the chosen checkpoint folds in
    epoch: int
    batches_replayed: int
    mutations_replayed: int
    wal_truncated: bool  # a torn/corrupt record cut the replay short
    replay_ms: float

    def describe(self) -> str:
        tail = " (torn WAL tail dropped)" if self.wal_truncated else ""
        return (
            f"recovered to epoch {self.epoch}: checkpoint at epoch "
            f"{self.checkpoint_epoch} + {self.batches_replayed} WAL batches "
            f"({self.mutations_replayed} mutations) replayed in "
            f"{self.replay_ms:.1f} ms{tail}"
        )


def _release(engine: Any) -> None:
    """Shut down a recovered engine that will not be handed out (a service's pool)."""
    close = getattr(engine, "close", None)
    if close is not None:
        close()


def _recover(
    root: str | Path,
    at_epoch: int | None,
    build: Callable[[list[SpatialObject], Any], Any],
) -> Recovery:
    """The one recovery path: newest valid checkpoint + WAL-suffix replay.

    Loads the newest valid checkpoint at or below ``at_epoch`` (the newest
    overall when ``at_epoch`` is ``None``), hands its objects and manifest
    to ``build`` for the engine to replay into, and applies the durable WAL
    suffix batch-by-batch through that engine's ``apply_many`` — stopping
    at the pre-crash epoch, or at exactly ``at_epoch`` when one is given.
    An unreachable ``at_epoch`` raises, and the half-built engine is shut
    down first.
    """
    objects, manifest = latest_checkpoint(checkpoints_path(root), at_epoch=at_epoch)
    scan = read_wal(wal_path(root), anchor_seq=manifest.wal_seq)
    engine = build(objects, manifest)
    try:
        start = time.perf_counter()
        epoch, mutations = manifest.epoch, 0
        for _seq, batch in scan.suffix(manifest.wal_seq):
            if epoch == at_epoch:
                break
            engine.apply_many(batch)
            epoch += 1
            mutations += len(batch)
        replay_ms = (time.perf_counter() - start) * 1000.0
        if at_epoch is not None and epoch != at_epoch:
            raise DurabilityError(
                f"cannot reach epoch {at_epoch}: checkpoint at epoch {manifest.epoch} "
                f"plus the durable WAL only reaches epoch {epoch}"
            )
    except BaseException:
        _release(engine)
        raise
    return Recovery(
        engine=engine,
        checkpoint_epoch=manifest.epoch,
        checkpoint_wal_seq=manifest.wal_seq,
        epoch=epoch,
        batches_replayed=epoch - manifest.epoch,
        mutations_replayed=mutations,
        wal_truncated=scan.truncated,
        replay_ms=replay_ms,
    )


def recover_engine(
    root: str | Path,
    at_epoch: int | None = None,
    **engine_kwargs: Any,
) -> Recovery:
    """Rebuild a :class:`SpatialEngine` from a durability directory.

    Loads the newest valid checkpoint (optionally the newest at or below
    ``at_epoch``), replays the durable WAL suffix batch-by-batch through
    :meth:`SpatialEngine.apply_many`, and stops either at the pre-crash
    epoch or — when ``at_epoch`` is given — at exactly that epoch.
    """
    return _recover(
        root, at_epoch, lambda objects, _manifest: SpatialEngine(objects, **engine_kwargs)
    )


def _recover_service(
    root: str | Path,
    at_epoch: int | None = None,
    num_shards: int | None = None,
    **service_kwargs: Any,
) -> Recovery:
    """Rebuild a :class:`~repro.service.ShardedEngine` from a durability directory.

    The service starts at the checkpoint's epoch (its manifest also
    remembers the shard spec, used when ``num_shards`` is not given) and
    publishes each replayed WAL batch as one epoch, so the recovered
    ``service.epoch`` equals the recovered epoch exactly.
    """
    from repro.service.sharded import ShardedEngine

    def build(objects: list[SpatialObject], manifest: Any) -> ShardedEngine:
        shards = num_shards
        if shards is None:
            shards = manifest.num_shards if manifest.num_shards is not None else 1
        return ShardedEngine(
            objects, num_shards=shards, initial_epoch=manifest.epoch, **service_kwargs
        )

    return _recover(root, at_epoch, build)


def _read_only_open(root: str | Path, at_epoch: int | None = None) -> str:
    """The read-only ``repro.open`` call that fits this directory's kind."""
    sharded = latest_manifest(checkpoints_path(root)).num_shards is not None
    args = "root, sharded=True, durable=False" if sharded else "root, durable=False"
    if at_epoch is not None:
        args += f", at_epoch={at_epoch}"
    return f"repro.open({args})"


def _open_for_writing(
    root: str | Path,
    at_epoch: int | None,
    recover: Callable[[int | None], Recovery],
    wal_kwargs: dict[str, Any] | None = None,
) -> tuple[Recovery, WriteAheadLog]:
    """The one writable open: recover to the durable tip, reattach the WAL.

    Opening the WAL for writing runs destructive tail repair, so every
    guard runs before it.  The tip is computed read-only first: a
    time-travel open below it must stay read-only (appending from the past
    would fork the history), and a refused open stays cheap — no
    checkpoint load or replay happens just to be thrown away.  Then
    ``recover(at_epoch)`` rebuilds the engine, which must land exactly on
    the tip: :func:`durable_tip` validates checkpoints at manifest+CRC
    level and recovery at object level, and if they disagree (a checkpoint
    that reads but will not load, or damage blocking the replay from an
    older fallback checkpoint) appending at the recovered epoch would
    misalign seq and epoch and orphan the batches between it and the tip.
    Finally the WAL reopens anchored at the *newest* checkpoint's
    ``wal_seq`` — never the one recovery started from, whose anchor would
    read covered mid-history damage as a torn tail and truncate
    acknowledged batches.  Any refusal shuts the recovered engine down.
    """
    anchor, tip = durable_tip(root)
    if at_epoch is not None and at_epoch < tip:
        raise DurabilityError(
            f"epoch {at_epoch} is before the durable tip {tip}; time-travel opens "
            f"are read-only — use {_read_only_open(root, at_epoch)} instead"
        )
    recovery = recover(at_epoch)
    try:
        if recovery.epoch != tip:
            raise DurabilityError(
                f"recovered epoch {recovery.epoch} does not reach the durable tip "
                f"{tip}: the newest checkpoint or the WAL suffix is damaged — the "
                f"directory is still readable via {_read_only_open(root)}, but "
                "opening it for writing would fork the history"
            )
        wal = WriteAheadLog(wal_path(root), **{"anchor_seq": anchor, **(wal_kwargs or {})})
    except BaseException:
        _release(recovery.engine)
        raise
    return recovery, wal


def checkpoint_engine(
    root: str | Path,
    engine: SpatialEngine,
    epoch: int,
    wal: WriteAheadLog | None = None,
) -> Path:
    """Checkpoint a single engine's dataset at ``epoch``.

    When a WAL is given its group-commit window is flushed first, so the
    recorded ``wal_seq`` is genuinely durable.  Without one, the batch
    seq == epoch invariant of the durability layout stands in: the
    checkpoint claims exactly the first ``epoch`` WAL batches, so
    checkpointing a recovered (WAL-less) engine never causes replay of
    batches it already folds in.
    """
    if wal is not None:
        wal.flush()
        wal_seq = wal.last_durable_seq
    else:
        wal_seq = epoch
    return write_checkpoint(
        checkpoints_path(root),
        engine.arena,  # columns dump straight to the binary format
        epoch=epoch,
        wal_seq=wal_seq,
        num_shards=None,
        page_capacity=engine.page_capacity,
    )


def checkpoint_sharded(root: str | Path, service: Any) -> Path:
    """Checkpoint a (WAL-attached or plain) sharded service at its epoch.

    Without an attached WAL the seq == epoch invariant stands in for the
    durable position, exactly as in :func:`checkpoint_engine`.
    """
    if service.wal is not None:
        service.wal.flush()
        wal_seq = service.wal.last_durable_seq
    else:
        wal_seq = service.epoch
    return write_checkpoint(
        checkpoints_path(root),
        service.objects,
        epoch=service.epoch,
        wal_seq=wal_seq,
        num_shards=service.num_shards,
    )
