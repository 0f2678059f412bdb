"""The pin stores against a fresh computation, and the recorder's registry and diff table."""

import json
from pathlib import Path

import pytest

import pins

H1, H2 = (0.25).hex(), (0.25 + 2**-54).hex()  # one ulp apart
SHA_A, SHA_B = "ab" * 32, "cd" * 32


# The pareto store is checked per problem by test_pareto.py::TestEvolve::test_bitwise_pin.
@pytest.mark.parametrize("store", ["construction", "csv"])
def test_pin_store(store):
    want, got = pins.load(store), pins.computed()[store]
    assert got == want, pins.report(store, want, got)


def test_every_pin_file_is_a_registered_store_in_the_recorder_format():
    # A store laid out by hand, or one no recorder writes, would fail here.
    files = sorted(p.name for p in Path(pins.__file__).parent.glob("*_pin.json"))
    assert files == sorted(pins.path(store).name for store in pins.STORES)
    for store in pins.STORES:
        text = pins.path(store).read_text()
        assert text == pins.dumps(json.loads(text)), store


class TestDiff:
    STORE = {
        "x": H1,
        "digest": SHA_A,
        "amps": [[H1, "0x0.0p+0"], ["0x1.0p+0", "-0x1.0p+1"]],
        "bound": {"c=0.0": [H1, "infinitely-squeezed", None]},
    }

    def moved(self, **changes):
        return {"s": {**self.STORE, **changes}}

    def test_equal_stores_give_no_rows(self):
        assert pins.diff({"s": self.STORE}, {"s": json.loads(json.dumps(self.STORE))}) == []
        assert pins.table([]) == ""

    def test_moved_hex_float_gives_old_new_and_relative_change(self):
        assert pins.diff({"s": self.STORE}, self.moved(x=H2)) == [("s|x", "0.25", "0.25000000000000006", "rel 2.2e-16")]

    def test_list_gives_its_largest_move_and_the_count_of_moved_entries(self):
        amps = [[H2, "0x1.0p-60"], ["0x1.0p+0", "-0x1.8p+1"]]
        (row,) = pins.diff({"s": self.STORE}, self.moved(amps=amps))
        # The 0 -> 2**-60 entry has no finite relative change, so it is the largest.
        assert row == ("s|amps[0][1]", "0.0", "8.673617379884035e-19", "max rel inf, 3 of 4 moved")
        (row,) = pins.diff({"s": self.STORE}, self.moved(amps=[[H2, "0x0.0p+0"], ["0x1.0p+0", "-0x1.8p+1"]]))
        assert row == ("s|amps[1][1]", "-2.0", "-3.0", "max rel 0.5, 2 of 4 moved")

    def test_moved_digest_and_name_show_as_changed(self):
        (row,) = pins.diff({"s": self.STORE}, self.moved(digest=SHA_B))
        assert row == ("s|digest", SHA_A[:12] + "...", SHA_B[:12] + "...", "changed")
        # A branch name starting with "inf" is not a float.
        (row,) = pins.diff({"s": self.STORE}, self.moved(bound={"c=0.0": [H1, "squeezed-vacuum", None]}))
        assert row == ("s|bound|c=0.0[1]", "infinitely-squeezed", "squeezed-vacuum", "changed, 1 of 3 moved")

    def test_added_removed_and_reshaped_keys_are_named(self):
        new = {"s": {**self.STORE, "y": H1, "amps": [[H1, "0x0.0p+0"]]}}
        del new["s"]["digest"]
        assert pins.diff({"s": self.STORE}, new) == [
            ("s|digest", SHA_A[:12] + "...", "-", "removed"),
            ("s|amps", "4 entries", "2 entries", "reshaped"),
            ("s|y", "-", "0.25", "added"),
        ]
        assert [row[3] for row in pins.diff({}, {"s": self.STORE})] == ["added"] * 4

    def test_table_aligns_columns_under_a_header(self):
        lines = pins.table(pins.diff({"s": self.STORE}, self.moved(x=H2, digest=SHA_B))).splitlines()
        assert lines[0].split() == ["key", "old", "new", "change"]
        assert [line.split()[0] for line in lines[1:]] == ["s|x", "s|digest"]
        assert len({line.index(line.split()[1]) for line in lines}) == 1  # the old column lines up
