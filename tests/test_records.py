"""Value semantics of the immutable records: construction, defaults,
immutability, equality, hashing, repr and pickling."""

import pickle

import pytest

from netsig import TSignature, load_fixture
from netsig.graph import Network, parse_network

NODES = ("a", "b", "c")
LINKS = ((1, "a", "b"), (2, "b", "c"))
TERMINALS = frozenset({"a", "c"})

# (class, positional arguments, field names, defaults left out of the arguments)
RECORDS = [
    (Network, (NODES, LINKS, TERMINALS), ("nodes", "links", "terminals"), {}),
    (TSignature, (2, (1, 2), 3, "exact", "exact-subset"),
     ("n", "counts", "total", "mode", "m_mode"), {}),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, args, fields, defaults", RECORDS, ids=IDS)
class TestRecord:
    def test_defaults(self, cls, args, fields, defaults):
        record = cls(*args)
        assert {name: getattr(record, name) for name in defaults} == defaults

    def test_keyword_equals_positional(self, cls, args, fields, defaults):
        keywords = dict(zip(fields, args))
        assert cls(**keywords) == cls(*args)
        assert cls(*args[:1], **dict(list(keywords.items())[1:])) == cls(*args)

    def test_bad_arguments(self, cls, args, fields, defaults):
        with pytest.raises(TypeError):
            cls(*args[:-1])  # the last positional field has no default
        with pytest.raises(TypeError):
            cls(*args, **{fields[0]: args[0]})
        with pytest.raises(TypeError):
            cls(*args, nonsense=1)
        with pytest.raises(TypeError):
            cls(*args, *[None] * (len(fields) - len(args) + 1))

    def test_immutable(self, cls, args, fields, defaults):
        record = cls(*args)
        for name in (fields[0], "other"):
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(record, name, 0)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, fields[1])

    def test_equality_and_hash(self, cls, args, fields, defaults):
        a, b = cls(*args), cls(*args)
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != object() and a.__eq__(object()) is NotImplemented

    def test_repr(self, cls, args, fields, defaults):
        record = cls(*args)
        shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
        assert repr(record) == f"{cls.__qualname__}({shown})"

    def test_pickle_round_trip(self, cls, args, fields, defaults):
        record = cls(*args)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(record, protocol))
            assert copy == record and type(copy) is cls
            assert all(getattr(copy, name) == getattr(record, name) for name in fields)
            with pytest.raises(AttributeError):
                copy.__setattr__(fields[0], 0)


def test_network_name_is_not_compared():
    # A network is its nodes, links and terminals: it carries no name (such
    # as the file it was read from) that could tell two equal networks apart.
    a = Network(NODES, LINKS, TERMINALS)
    b = parse_network("terminals c a\nedge a b\nedge b c\n")
    assert a == b and hash(a) == hash(b)
    assert a != Network(NODES, LINKS[:1] + ((2, "a", "c"),), TERMINALS)
    with pytest.raises(TypeError):
        Network(NODES, LINKS, TERMINALS, name="a")


def test_fixture_network_survives_pickling():
    net = load_fixture("figure1")
    copy = pickle.loads(pickle.dumps(net))
    assert copy == net and copy.n == 9


def test_network_bitgraph_is_derived():
    net = Network(NODES, LINKS, TERMINALS)
    assert net.bitgraph.ends == [(0, 0), (0, 1), (1, 2)]
    assert "bitgraph" not in repr(net)
    with pytest.raises(TypeError):
        Network(NODES, LINKS, TERMINALS, bitgraph=net.bitgraph)
    assert pickle.loads(pickle.dumps(net)).bitgraph.ends == net.bitgraph.ends


def test_records_of_different_classes_differ():
    # A record compares equal only to a record of its own class, whatever
    # the fields hold.
    net = Network(NODES, LINKS, TERMINALS)
    sig = TSignature(2, (1, 2), 3, "exact", "exact-subset")
    assert net != sig and sig != net
    assert net.__eq__(sig) is NotImplemented and sig.__eq__(net) is NotImplemented


def test_validation_still_runs_on_keyword_construction():
    with pytest.raises(ValueError, match="counts must sum to total"):
        TSignature(n=2, counts=(1, 2), total=4, mode="exact", m_mode="exact-subset")
