"""Front-door constructors: :func:`repro.create` and :func:`repro.open`.

These two calls are the only way to build or reopen an engine over a
durability directory:

* :func:`create` builds a **fresh** engine over a dataset — in memory when
  ``root`` is ``None``, durable (WAL + base checkpoint) when a directory is
  given, sharded when ``sharded=True``.
* :func:`open` attaches to an **existing** durability directory — writable
  with the WAL reattached by default, read-only (optionally time-travelled
  to ``at_epoch``) with ``durable=False``.  Single engines and sharded
  services share one recovery path and one writable-open path
  (:mod:`repro.durability.recovery`).

>>> engine = repro.create(circuit.segments())                   # in-memory
>>> durable = repro.create(circuit.segments(), "model_dir")     # + WAL
>>> service = repro.create(objs, "svc_dir", sharded=True, num_shards=4)
>>> durable = repro.open("model_dir")                           # pre-crash epoch
>>> past = repro.open("model_dir", durable=False, at_epoch=3)   # time-travel
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

from repro.errors import DurabilityError
from repro.objects import SpatialObject

__all__ = ["create", "open"]


def create(
    objects: Sequence[SpatialObject],
    root: str | Path | None = None,
    *,
    sharded: bool = False,
    num_shards: int | None = None,
    wal_kwargs: dict[str, Any] | None = None,
    **engine_kwargs: Any,
) -> Any:
    """Build a fresh engine over ``objects``.

    ``root=None`` (the default) gives an in-memory engine: a
    :class:`~repro.engine.SpatialEngine`, or a
    :class:`~repro.service.ShardedEngine` when ``sharded=True``.  With a
    directory, the engine is durable — a base checkpoint is written at epoch
    0 and every mutation batch is journaled to the write-ahead log before it
    is acknowledged.  The directory must hold no prior state; resume an
    existing one with :func:`open`.  Extra keyword arguments pass through to
    the underlying engine (``page_capacity=...``, ``circuit=...``, the
    sharded service's pool knobs, ...).
    """
    from repro.engine.engine import SpatialEngine
    from repro.service.sharded import ShardedEngine

    if num_shards is not None and not sharded:
        raise DurabilityError("num_shards requires sharded=True")
    if sharded and num_shards is None:
        num_shards = 4
    if root is None:
        if wal_kwargs is not None:
            raise DurabilityError("wal_kwargs requires a durability root")
        if sharded:
            return ShardedEngine(objects, num_shards=num_shards, **engine_kwargs)
        return SpatialEngine(objects, **engine_kwargs)

    from repro.durability.checkpoint import list_checkpoints
    from repro.durability.engine import DurableEngine
    from repro.durability.recovery import (
        checkpoint_engine,
        checkpoints_path,
        wal_path,
        write_checkpoint,
    )
    from repro.durability.wal import WriteAheadLog, read_wal

    root = Path(root)
    if list_checkpoints(checkpoints_path(root)):
        raise DurabilityError(f"{root} already holds checkpoints; use repro.open")
    if read_wal(wal_path(root), decode=False).last_seq:
        raise DurabilityError(
            f"{root} holds WAL batches but no base checkpoint; the log cannot be "
            "anchored — recover manually or start from a fresh directory"
        )
    if sharded:
        write_checkpoint(
            checkpoints_path(root), objects, epoch=0, wal_seq=0, num_shards=num_shards
        )
        wal = WriteAheadLog(wal_path(root), **(wal_kwargs or {}))
        return ShardedEngine(objects, num_shards=num_shards, wal=wal, **engine_kwargs)
    engine = SpatialEngine(objects, **engine_kwargs)
    wal = WriteAheadLog(wal_path(root), **(wal_kwargs or {}))
    checkpoint_engine(root, engine, epoch=0, wal=wal)
    return DurableEngine(engine, wal, root)


def open(
    root: str | Path,
    *,
    sharded: bool = False,
    durable: bool = True,
    at_epoch: int | None = None,
    num_shards: int | None = None,
    wal_kwargs: dict[str, Any] | None = None,
    **engine_kwargs: Any,
) -> Any:
    """Attach to an existing durability directory.

    ``durable=True`` (the default) returns a *writable* engine with the WAL
    reattached: a :class:`~repro.durability.DurableEngine`, or a journaling
    :class:`~repro.service.ShardedEngine` when ``sharded=True`` — recovered
    to the exact pre-crash epoch, appending where it left off.

    ``durable=False`` returns a *read-only* recovered engine: no WAL handle
    is taken, and ``at_epoch`` may time-travel to any epoch from the oldest
    checkpoint through the durable tip.  The recovery record (checkpoint
    used, batches replayed, replay time) is attached to the returned engine
    as ``engine.last_recovery``.

    ``num_shards`` (sharded only) re-tiles the recovered dataset; the
    default keeps the checkpoint manifest's shard spec.
    """
    from repro.durability.checkpoint import list_checkpoints
    from repro.durability.engine import DurableEngine
    from repro.durability.recovery import (
        _open_for_writing,
        _recover_service,
        checkpoints_path,
        recover_engine,
    )

    root = Path(root)
    if durable and sharded and at_epoch is not None:
        raise DurabilityError(
            "at_epoch opens of a sharded service are read-only; use "
            f"repro.open(root, sharded=True, durable=False, at_epoch={at_epoch})"
        )
    if not durable and wal_kwargs is not None:
        raise DurabilityError("wal_kwargs requires durable=True")
    if not sharded and num_shards is not None:
        raise DurabilityError("num_shards requires sharded=True")
    if not list_checkpoints(checkpoints_path(root)):
        raise DurabilityError(f"{root} holds no checkpoints; use repro.create")

    def recover(epoch: int | None):
        if sharded:
            return _recover_service(root, epoch, num_shards, **engine_kwargs)
        return recover_engine(root, epoch, **engine_kwargs)

    if not durable:
        recovery = recover(at_epoch)
        recovery.engine.last_recovery = recovery
        return recovery.engine
    recovery, wal = _open_for_writing(root, at_epoch, recover, wal_kwargs)
    if sharded:
        recovery.engine.wal = wal
        return recovery.engine
    return DurableEngine(recovery.engine, wal, root, epoch=recovery.epoch)
