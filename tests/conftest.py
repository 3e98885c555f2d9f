"""Hypothesis settings and the suite's wire instruments.

With `CI` set (GitHub Actions sets it), every property test draws the same
examples on every run, so a push cannot fail on a draw no one can replay.

The fixtures `delivered_messages` and `tampering` hand a test the two
instruments that watch and edit the wire. They are fixtures, not imports,
because `perfbench/` has a conftest module of its own.
"""

import os
from collections import namedtuple
from contextlib import contextmanager

import pytest
from hypothesis import settings

from sapgnn.wire import Channel

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

# one delivered message; `kind` is the kind's wire name, e.g. "PartialSum"
Delivery = namedtuple("Delivery", "sender receiver kind layer epoch fields")


@contextmanager
def _delivered_messages(tamper=None):
    """Every message delivered while the block runs, in order, as Deliveries
    whose `fields` are a copy of what the receiver decoded (the test owns
    them and may add into them). Channel.send is patched on the class, so
    the sends through a holder step's outbox are seen too. `tamper(sender,
    receiver, kind, fields)`, if given, returns what to hand the receiver in
    place of the decoded fields; the record keeps what was decoded."""
    delivered, send = [], Channel.send

    def recording(self, sender, receiver, kind, layer, epoch, fields, sender_id=-1):
        decoded = send(self, sender, receiver, kind, layer, epoch, fields, sender_id)
        delivered.append(Delivery(sender, receiver, kind.value, layer, epoch,
                                  {name: arr.copy() for name, arr in decoded.items()}))
        return decoded if tamper is None else tamper(sender, receiver, kind.value, decoded)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Channel, "send", recording)
        yield delivered


def _tampering(kind, edit, sender=None, receiver=None):
    """A `tamper` that hands the receiver of `kind` messages (a wire name,
    e.g. "PartialSum") `edit` of the decoded fields: of those from `sender`
    to `receiver` only, where given."""
    def tamper(by, to, sent_kind, fields):
        hit = sent_kind == kind and sender in (None, by) and receiver in (None, to)
        return edit(fields) if hit else fields
    return tamper


@pytest.fixture(scope="session")
def delivered_messages():
    """`delivered_messages(tamper=None)`: a context manager that records
    every delivered message (see `_delivered_messages`)."""
    return _delivered_messages


@pytest.fixture(scope="session")
def tampering():
    """`tampering(kind, edit, sender=None, receiver=None)`: a `tamper` for
    `delivered_messages` (see `_tampering`)."""
    return _tampering
