"""End-to-end session scenarios over the simulated channel.

A world holds the three parties wired to one scheduler, with the pinned
demo credentials and a synthetic telemetry source; the scheduler holds
the attacker, if any, and the transcript.  drive runs flows (pair ->
auth -> read -> write) on a world from where it stands, snapshotting
the implant's crypto-operation counters per phase, and after auth hands
the programmer the RM of the transcript's latest out-of-band entry to
the doctor's phone, the RM's only record; a phase passes once
every role named in the flow's rows completed it during the call, and a
write only once a command was applied.  SCENARIOS maps each scenario to
its flows.  run_session drives one on a given world, refusing a seed,
reconstruct flag or other config with it, or else on the default world.
Everything is deterministic in the session seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

from . import ecg
from .channel import Attacker, Scheduler, Transcript
from .crypto import Credentials, SymmetricKey
from .keymat import (
    authority_private_key,
    doctor_certificate,
    doctor_sealing_key,
    doctor_signing_key,
)
from .parties import FLOW_ROLES, Imd, NotReady, Programmer, Smartphone, SystemConfig

__all__ = ["World", "SessionResult", "build_world", "drive", "run_session", "SCENARIOS"]

SCENARIOS = {s: tuple(FLOW_ROLES)[:i] for i, s in enumerate(("pair", "auth", "read", "full"), 1)}

SMARTPHONE_ID = b"SM-2041"
IMPLANT_ID = b"IMD-7742"
DOCTOR_ID = b"DR-ALICE"
DOCTOR_PHONE = "doctor-phone"
DEFAULT_COMMAND = b"therapy: pace-rate=72"


def _party_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class World:
    config: SystemConfig
    smartphone: Smartphone
    imd: Imd
    programmer: Programmer
    scheduler: Scheduler
    master_key: SymmetricKey

    def secret_values(self) -> dict[str, bytes]:
        """Material that must never appear on the wire in the clear."""
        credentials = self.programmer.credentials
        secrets: dict[str, bytes] = {
            "master_key": self.master_key.data,
            "doctor_signing_seed": credentials.signing_key.private_bytes_raw(),
            "doctor_sealing_seed": credentials.sealing_key.private_bytes_raw(),
        }
        if self.smartphone.k_i is not None:
            secrets["k_i"] = self.smartphone.k_i.data
        if self.smartphone.k_p is not None:
            secrets["k_p"] = self.smartphone.k_p.data
        if self.smartphone.k_r is not None:
            secrets["k_r"] = self.smartphone.k_r.data
        if self.smartphone.kd_bytes is not None:
            secrets["shift_key"] = self.smartphone.kd_bytes
        if self.smartphone.rm is not None:
            secrets["rm"] = self.smartphone.rm
        if self.smartphone.nonce is not None:
            secrets["nonce"] = self.smartphone.nonce
        if self.smartphone.ephemeral is not None:
            secrets["ephemeral_scalar"] = self.smartphone.ephemeral
        if self.programmer.command is not None:
            secrets["command"] = self.programmer.command
        for i, record in enumerate(self.imd.data_source.records):
            secrets[f"raw_data_{i}"] = ecg.raw_signal_bytes(record)
        return secrets


class _TelemetrySource:
    """Callable data source exposing its records for oracle checks."""

    def __init__(self, records: list[ecg.EcgRecord]):
        self.records = records

    def __call__(self):
        return [ecg.to_bounded_signal(r) for r in self.records]


def build_world(
    seed: int = 0,
    config: Optional[SystemConfig] = None,
    attacker: Optional[Attacker] = None,
    reconstruct: bool = True,
    n_signals: int = 1,
    master_key: Optional[SymmetricKey] = None,
) -> World:
    """Wire up the three parties; master_key may be pinned so separate
    worlds model fresh sessions of the same implant."""
    config = config or SystemConfig()
    if master_key is None:
        master_key = SymmetricKey(
            hashlib.sha256(f"master/{seed}".encode()).digest()[:16]
        )
    records = [
        ecg.synth_ecg_like(f"world/{seed}/{i}".encode(), n=config.n)
        for i in range(n_signals)
    ]

    credentials = Credentials(
        signing_key=doctor_signing_key(),
        sealing_key=doctor_sealing_key(),
        certificate=doctor_certificate(DOCTOR_ID),
    )

    smartphone = Smartphone(
        seed=_party_seed(seed, "smartphone"),
        config=config,
        smartphone_id=SMARTPHONE_ID,
        implant_id=IMPLANT_ID,
        ca_public_key=authority_private_key().public_key(),
        doctor_oob_directory={DOCTOR_ID: DOCTOR_PHONE},
    )
    imd = Imd(
        seed=_party_seed(seed, "imd"),
        config=config,
        implant_id=IMPLANT_ID,
        master_key=master_key,
        data_source=_TelemetrySource(records),
    )
    programmer = Programmer(
        seed=_party_seed(seed, "programmer"),
        config=config,
        credentials=credentials,
        target_implant_id=IMPLANT_ID,
        reconstruct=reconstruct,
    )
    scheduler = Scheduler(
        parties={party.role: party for party in (smartphone, imd, programmer)},
        attacker=attacker,
    )
    return World(
        config=config,
        smartphone=smartphone,
        imd=imd,
        programmer=programmer,
        scheduler=scheduler,
        master_key=master_key,
    )


@dataclass
class SessionResult:
    phases: dict[str, bool]
    imd_op_counts: dict[str, dict[str, int]]
    world: World

    @property
    def transcript(self) -> Transcript:
        return self.world.scheduler.transcript

    @property
    def ok(self) -> bool:
        return all(self.phases.values())


def drive(world: World, flows: Sequence[str], command: bytes = DEFAULT_COMMAND) -> SessionResult:
    """Run the flows in order from the world's current state, stopping at
    the first one that fails; a flow not reached, or whose opener needs
    an earlier flow that has not completed, reads False.  A flow named
    twice raises ValueError: drive each session in its own call."""
    sched = world.scheduler
    openers = {
        "pair": lambda: world.smartphone.start_pair(world.master_key),
        "auth": world.programmer.start_auth,
        "read": world.programmer.start_read,
        "write": lambda: world.programmer.start_write(command),
    }
    phases = dict.fromkeys(flows, False)
    if len(phases) < len(flows):
        twice = next(flow for i, flow in enumerate(flows) if flow in flows[:i])
        raise ValueError(f"flow {twice!r} named twice; drive each session in its own call")
    op_counts: dict[str, dict[str, int]] = {}
    for flow in phases:
        roles = FLOW_ROLES[flow]
        done = {role: sched.parties[role].completed[flow] for role in roles}
        applied, before = len(world.imd.applied_commands), world.imd.crypto.snapshot()
        try:
            sched.initiate(roles[0], openers[flow])
        except NotReady:
            break
        sched.run_until_quiet()
        ran = {role for role in roles if sched.parties[role].completed[flow] > done[role]}
        if flow == "auth" and "programmer" in ran:
            rm = next((e.payload for e in reversed(sched.transcript.entries)
                       if e.kind == "oob" and e.receiver == DOCTOR_PHONE), None)
            if rm is not None:  # the doctor types in the RM their phone shows
                world.programmer.enter_rm(rm)
        op_counts[flow] = world.imd.crypto.snapshot() - before
        phases[flow] = len(ran) == len(roles) and (
            flow != "write" or len(world.imd.applied_commands) > applied
        )
        if not phases[flow]:
            break
    return SessionResult(phases=phases, imd_op_counts=op_counts, world=world)


def run_session(
    scenario: str = "full",
    *,
    seed: Optional[int] = None,
    config: Optional[SystemConfig] = None,
    command: bytes = DEFAULT_COMMAND,
    reconstruct: Optional[bool] = None,
    world: Optional[World] = None,
) -> SessionResult:
    """Drive the scenario's flows on the world, by default seed 0's with reconstruction."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    if world is None:
        world = build_world(seed=seed or 0, config=config, reconstruct=reconstruct is not False)
    elif seed is not None or reconstruct is not None:
        raise ValueError("seed and reconstruct build a world; a given world has its own")
    elif config is not None and config != world.config:
        raise ValueError(f"config {config} differs from the world's {world.config}")
    return drive(world, SCENARIOS[scenario], command)
