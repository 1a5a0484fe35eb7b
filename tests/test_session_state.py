"""A doctor session's state lives in one record per party: each party
holds its SessionState as ``current``, keeps none of the record's fields
as attributes of its own, and World.secret_values checks every secret
field of all three records."""

import dataclasses

import pytest

from imdsec.parties import SessionState, SystemConfig
from imdsec.scenarios import run_session

RECORD_FIELDS = {f.name for f in dataclasses.fields(SessionState)}


@pytest.fixture(scope="module")
def world():
    result = run_session("full", seed=6, config=SystemConfig(n=64, qs=0))
    assert result.ok
    return result.world


def _parties(world):
    return (world.smartphone, world.imd, world.programmer)


def test_no_party_holds_a_record_field_of_its_own(world):
    for party in _parties(world):
        assert sorted(RECORD_FIELDS & set(vars(party))) == [], party.role


def test_every_party_holds_the_programmers_session(world):
    session = world.programmer.current.session
    assert [party.current.session for party in _parties(world)] == [session] * 3


def test_secret_values_name_every_secret_field_that_is_set(world):
    assert set(SessionState.SECRETS) <= RECORD_FIELDS
    set_fields = {
        f"{party.role}.{name}"
        for party in _parties(world)
        for name in SessionState.SECRETS
        if getattr(party.current, name) is not None
    }
    secrets = world.secret_values()
    assert set_fields <= set(secrets)
    # each party's copy of a shared secret is the same bytes
    assert secrets["smartphone.k_r"] == secrets["imd.k_r"] == secrets["programmer.k_r"]
    assert secrets["smartphone.kd_bytes"] == secrets["imd.shift_key"]
