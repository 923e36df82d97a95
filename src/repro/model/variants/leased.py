"""Read leases over the collector: the protocol-v4 extension, modelled.

One object owned by process 0; clients hold surrogates (``usable``)
and are registered in the owner's dirty set (``pdirty``).  On top of
that base, the lease protocol: clients request leases, the owner
grants them with the object's current version, writes invalidate every
outstanding lease before completing, and expiry/CLEAN/crash all retire
leases.  The model encodes the implementation's two key mechanisms:

* the *clock axiom* — the holder's deadline is strictly earlier than
  the owner's (the holder starts its clock at request-send), encoded
  by enabling owner-side expiry only after the holder-side replica is
  gone (``expire_held`` before ``expire_owner``/``expire_outstanding``);
* the *dead-id set* — an invalidation that overtakes its own grant
  marks the lease id dead, so a late ``install`` discards the replica
  instead of caching pre-write state;
* *release-before-write* — a holder that writes drops its replica
  and sends ``("rel", p, id)`` before ``("write", p, id)``; delivering
  the write is ``begin_write``.  Channels are unordered, so the
  release may also arrive after the write, when the owner invalidates
  the holder like any other.  ``trust_writer`` is the negative
  control: the owner skips the writer's lease on trust and the holder
  keeps its replica until the reply arrives.

Checked invariants (:func:`leased_violations`):

1. no stale replica once a write has completed (every held lease's
   version equals the object's version while no write is in flight);
2. lease holders ⊆ pdirty — leases ride the dirty sets, so they can
   never keep an entry alive on their own;
3. every held replica is backed by an owner-side lease (no orphan the
   owner would not invalidate);
4. no leaked lease or dirty-set entry at quiescence: once every
   surrogate is gone and no frame is in flight, both ``pdirty`` and
   the lease table are empty.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, List, Optional, Tuple


@dataclass(frozen=True)
class LeasedConfiguration:
    """One leased object owned by process 0; unordered channels.

    ``msgs`` holds in-flight frames: ``("req", p)``,
    ``("grant", p, id, ver)``, ``("inv", p, id)``,
    ``("inv_ack", p, id)``, ``("rel", p, id)``, ``("clean", p)``,
    ``("write", p, id)`` and its ``("reply", p, id)`` (a write by the
    holder of lease ``id``).  ``writer`` is None when no write is in
    flight, else the set of ``(p, id)`` invalidations the writer still
    awaits; ``writing_holder`` is the ``(p, id)`` of the holder whose
    write it is, if any.  ``value`` is the object's version — bumped
    once per write.  ``grants_left`` and ``writes_left`` bound the
    instance.
    """

    nprocs: int
    usable: FrozenSet[int]
    pdirty: FrozenSet[int]
    value: int = 0
    owner_leases: FrozenSet[Tuple[int, int, int]] = frozenset()
    held: FrozenSet[Tuple[int, int, int]] = frozenset()
    dead: FrozenSet[Tuple[int, int]] = frozenset()
    msgs: FrozenSet[Tuple] = frozenset()
    writer: Optional[FrozenSet[Tuple[int, int]]] = None
    writing_holder: Optional[Tuple[int, int]] = None
    next_id: int = 1
    grants_left: int = 2
    writes_left: int = 1
    #: Negative-control knob: with the dead-id set disabled, an
    #: invalidation that overtakes its grant is lost and the explorer
    #: finds the stale-install race mechanically.
    use_dead_ids: bool = True
    #: Negative-control knob: the owner trusts a writing holder to drop
    #: its replica when the reply arrives instead of before it sends.
    trust_writer: bool = False

    def describe(self) -> str:
        return (
            f"leased(usable={sorted(self.usable)}, "
            f"pdirty={sorted(self.pdirty)}, value={self.value}, "
            f"owner_leases={sorted(self.owner_leases)}, "
            f"held={sorted(self.held)}, writer={self.writer}, "
            f"msgs={sorted(self.msgs)})"
        )


def initial_leased(nprocs: int = 3, grants_left: int = 2,
                   writes_left: int = 1, use_dead_ids: bool = True,
                   trust_writer: bool = False) -> LeasedConfiguration:
    """Every client already holds a surrogate and sits in pdirty (the
    copy/dirty machinery is validated by the base model; this variant
    isolates the lease layer on top of it)."""
    clients = frozenset(range(1, nprocs))
    return LeasedConfiguration(
        nprocs=nprocs, usable=clients, pdirty=clients,
        grants_left=grants_left, writes_left=writes_left,
        use_dead_ids=use_dead_ids, trust_writer=trust_writer,
    )


@dataclass(frozen=True)
class _Transition:
    kind: str
    params: Tuple

    @property
    def rule(self):
        return self

    @property
    def name(self) -> str:
        return self.kind

    def fire(self, config):
        return _fire(config, self.kind, self.params)

    def __str__(self) -> str:
        return f"{self.kind}{self.params}"


def _holder_leases(config, proc):
    return {lease for lease in config.owner_leases if lease[0] == proc}


def _fire(config: LeasedConfiguration, kind, params) -> LeasedConfiguration:
    if kind == "req":
        (proc,) = params
        return replace(
            config,
            msgs=config.msgs | {("req", proc)},
            grants_left=config.grants_left - 1,
        )
    if kind == "grant":
        (proc,) = params
        lease_id = config.next_id
        return replace(
            config,
            msgs=(config.msgs - {("req", proc)})
            | {("grant", proc, lease_id, config.value)},
            owner_leases=config.owner_leases
            | {(proc, lease_id, config.value)},
            next_id=lease_id + 1,
        )
    if kind == "deny":
        (proc,) = params
        return replace(config, msgs=config.msgs - {("req", proc)})
    if kind == "install":
        proc, lease_id, version = params
        msgs = config.msgs - {("grant", proc, lease_id, version)}
        if config.use_dead_ids and (proc, lease_id) in config.dead:
            return replace(
                config, msgs=msgs,
                dead=config.dead - {(proc, lease_id)},
            )
        return replace(
            config, msgs=msgs,
            held=config.held | {(proc, lease_id, version)},
        )
    if kind == "drop_grant":
        # The holder-side clock expired the lease while its grant was
        # still in flight (or the holder crashed): the frame dies.
        proc, lease_id, version = params
        return replace(
            config,
            msgs=config.msgs - {("grant", proc, lease_id, version)},
        )
    if kind == "expire_held":
        lease = params
        return replace(config, held=config.held - {lease})
    if kind == "expire_owner":
        lease = params
        return replace(config, owner_leases=config.owner_leases - {lease})
    if kind == "holder_write":
        # Release-before-write: drop the replica, then the release
        # and the write go out (in no particular order on the wire).
        proc, lease_id, _version = params
        held = config.held
        msgs = config.msgs | {("write", proc, lease_id)}
        if not config.trust_writer:
            held = held - {params}
            msgs |= {("rel", proc, lease_id)}
        return replace(config, held=held, msgs=msgs,
                       writes_left=config.writes_left - 1)
    if kind in ("begin_write", "deliver_write"):
        outstanding = frozenset(
            (proc, lease_id) for (proc, lease_id, _v) in config.owner_leases
        )
        msgs = config.msgs
        writes_left = config.writes_left
        holder = None
        if kind == "deliver_write":
            holder = params
            msgs = msgs - {("write", *holder)}
            if config.trust_writer:
                outstanding = outstanding - {holder}
        else:
            writes_left -= 1
        return replace(
            config,
            value=config.value + 1,
            writes_left=writes_left,
            writer=outstanding,
            writing_holder=holder,
            msgs=msgs
            | {("inv", proc, lease_id) for (proc, lease_id) in outstanding},
        )
    if kind == "deliver_inv":
        proc, lease_id = params
        msgs = config.msgs - {("inv", proc, lease_id)}
        msgs |= {("inv_ack", proc, lease_id)}
        mine = {
            lease for lease in config.held
            if lease[0] == proc and lease[1] == lease_id
        }
        if mine:
            return replace(config, msgs=msgs, held=config.held - mine)
        # Invalidation overtook the grant: remember the dead id.
        return replace(
            config, msgs=msgs, dead=config.dead | {(proc, lease_id)},
        )
    if kind == "deliver_inv_ack":
        proc, lease_id = params
        writer = config.writer
        if writer is not None:
            writer = writer - {(proc, lease_id)}
        return replace(
            config,
            msgs=config.msgs - {("inv_ack", proc, lease_id)},
            owner_leases=frozenset(
                lease for lease in config.owner_leases
                if not (lease[0] == proc and lease[1] == lease_id)
            ),
            writer=writer,
        )
    if kind == "expire_outstanding":
        # The writer waited out the owner-side deadline for an
        # unresponsive holder; the clock axiom says the replica is
        # already gone there.
        proc, lease_id = params
        return replace(
            config,
            writer=config.writer - {(proc, lease_id)},
            owner_leases=frozenset(
                lease for lease in config.owner_leases
                if not (lease[0] == proc and lease[1] == lease_id)
            ),
        )
    if kind == "complete_write":
        msgs = config.msgs
        if config.writing_holder is not None:
            msgs = msgs | {("reply", *config.writing_holder)}
        return replace(config, writer=None, writing_holder=None, msgs=msgs)
    if kind == "deliver_reply":
        # Only a trusting owner's writer still holds the replica here.
        proc, lease_id = params
        mine = {
            lease for lease in config.held
            if lease[0] == proc and lease[1] == lease_id
        }
        msgs = config.msgs - {("reply", proc, lease_id)}
        if mine:
            msgs |= {("rel", proc, lease_id)}
        return replace(config, held=config.held - mine, msgs=msgs)
    if kind == "drop_ref":
        # The client's surrogate dies: release any held lease, then the
        # clean call (the implementation's clean path does both).
        (proc,) = params
        mine = {lease for lease in config.held if lease[0] == proc}
        msgs = config.msgs | {("clean", proc)}
        msgs |= {("rel", proc, lease_id) for (_p, lease_id, _v) in mine}
        return replace(
            config,
            usable=config.usable - {proc},
            held=config.held - mine,
            msgs=msgs,
        )
    if kind == "deliver_rel":
        proc, lease_id = params
        return replace(
            config,
            msgs=config.msgs - {("rel", proc, lease_id)},
            owner_leases=frozenset(
                lease for lease in config.owner_leases
                if not (lease[0] == proc and lease[1] == lease_id)
            ),
        )
    if kind == "deliver_clean":
        # handle_clean + the retire_holder hook: departure from the
        # dirty set retires every lease the client held.
        (proc,) = params
        return replace(
            config,
            msgs=config.msgs - {("clean", proc)},
            pdirty=config.pdirty - {proc},
            owner_leases=config.owner_leases - _holder_leases(config, proc),
        )
    if kind == "crash":
        # Pinger purge: the client vanishes mid-lease — every frame to
        # or from it dies with its connection, its dirty-set entry and
        # leases are purged (purge_client + retire_holder).
        (proc,) = params
        return replace(
            config,
            usable=config.usable - {proc},
            pdirty=config.pdirty - {proc},
            held=frozenset(l for l in config.held if l[0] != proc),
            owner_leases=config.owner_leases - _holder_leases(config, proc),
            dead=frozenset(d for d in config.dead if d[0] != proc),
            msgs=frozenset(m for m in config.msgs if m[1] != proc),
        )
    raise ValueError(kind)


class LeasedMachine:
    """Duck-type compatible with the generic explorer."""

    def enabled(self, config: LeasedConfiguration) -> List[_Transition]:
        transitions = []
        held_ids = {(proc, lease_id) for (proc, lease_id, _v) in config.held}
        grants_in_flight = {
            (msg[1], msg[2]) for msg in config.msgs if msg[0] == "grant"
        }
        if config.grants_left > 0:
            for proc in config.usable:
                if ("req", proc) in config.msgs:
                    continue
                if any(g[0] == proc for g in grants_in_flight):
                    continue
                if any(lease[0] == proc for lease in config.held):
                    continue  # cache hit; no request on the wire
                transitions.append(_Transition("req", (proc,)))
        for msg in config.msgs:
            if msg[0] == "req":
                kind = "grant" if msg[1] in config.pdirty else "deny"
                transitions.append(_Transition(kind, (msg[1],)))
            elif msg[0] == "grant":
                params = (msg[1], msg[2], msg[3])
                if msg[1] in config.usable:
                    transitions.append(_Transition("install", params))
                transitions.append(_Transition("drop_grant", params))
            elif msg[0] == "inv":
                # Crash removed the frames of dead clients; anything
                # still in flight reaches a live process.
                transitions.append(
                    _Transition("deliver_inv", (msg[1], msg[2]))
                )
            elif msg[0] == "inv_ack":
                transitions.append(
                    _Transition("deliver_inv_ack", (msg[1], msg[2]))
                )
            elif msg[0] == "rel":
                transitions.append(
                    _Transition("deliver_rel", (msg[1], msg[2]))
                )
            elif msg[0] == "clean":
                transitions.append(_Transition("deliver_clean", (msg[1],)))
            elif msg[0] == "write":
                if config.writer is None:
                    transitions.append(
                        _Transition("deliver_write", (msg[1], msg[2]))
                    )
            elif msg[0] == "reply":
                transitions.append(
                    _Transition("deliver_reply", (msg[1], msg[2]))
                )
        for lease in config.held:
            transitions.append(_Transition("expire_held", lease))
            if config.writes_left > 0:
                transitions.append(_Transition("holder_write", lease))
        for lease in config.owner_leases:
            proc, lease_id, _version = lease
            if (proc, lease_id) in held_ids:
                continue  # clock axiom: the holder's deadline is earlier
            if (proc, lease_id) in grants_in_flight:
                continue  # ditto: the request was sent before the grant
            transitions.append(_Transition("expire_owner", lease))
        if config.writer is None:
            if config.writes_left > 0:
                transitions.append(_Transition("begin_write", ()))
        elif not config.writer:
            transitions.append(_Transition("complete_write", ()))
        else:
            for proc, lease_id in config.writer:
                if (proc, lease_id) in held_ids:
                    continue
                if (proc, lease_id) in grants_in_flight:
                    continue
                transitions.append(
                    _Transition("expire_outstanding", (proc, lease_id))
                )
        for proc in config.usable:
            transitions.append(_Transition("drop_ref", (proc,)))
            transitions.append(_Transition("crash", (proc,)))
        return transitions


def leased_violations(config: LeasedConfiguration) -> List[str]:
    """The four lease-layer safety checks (see the module docstring)."""
    violations = []
    if config.writer is None:
        for proc, lease_id, version in config.held:
            if version < config.value:
                violations.append(
                    f"STALE-READ: holder {proc} serves lease {lease_id} "
                    f"at version {version} < object version "
                    f"{config.value} with no write in flight in "
                    f"{config.describe()}"
                )
    for proc, _lease_id, _version in config.owner_leases:
        if proc not in config.pdirty:
            violations.append(
                f"LEASE-OUTSIDE-PDIRTY: holder {proc} leases without a "
                f"dirty-set entry in {config.describe()}"
            )
    owner_ids = {
        (proc, lease_id) for (proc, lease_id, _v) in config.owner_leases
    }
    for proc, lease_id, _version in config.held:
        if (proc, lease_id) not in owner_ids:
            violations.append(
                f"ORPHAN-REPLICA: holder {proc} serves lease {lease_id} "
                f"the owner no longer tracks in {config.describe()}"
            )
    quiescent = (not config.msgs and config.writer is None
                 and not config.usable and not config.held)
    if quiescent and (config.pdirty or config.owner_leases):
        violations.append(
            f"LEAK: dirty set {sorted(config.pdirty)} / leases "
            f"{sorted(config.owner_leases)} survive quiescence in "
            f"{config.describe()}"
        )
    return violations
