from __future__ import annotations

import pytest

from fuchs.caps import CapExceeded
from fuchs.presentation import (PresentationError, format_combination,
                                parse_combination, parse_ring_document,
                                parse_tn_document)
from fuchs.radical import RadicalRing
from fuchs.finring import FinCommRing, zn_with_nilpotent, zn_ring
from fuchs.tnlab import TnModel, load_example


class TestRingDocuments:
    def test_radical_round_trip(self):
        N = RadicalRing(2, (2,), ((2,),), name="two-zee-eight")
        text = N.to_presentation()
        back = RadicalRing.from_presentation(text)
        assert back == N
        assert back.name == "two-zee-eight"
        assert back.to_presentation() == text

    def test_ring_round_trip(self):
        for A in (zn_ring(12), zn_with_nilpotent(4, 2)):
            text = A.to_presentation()
            back = FinCommRing.from_presentation(text)
            assert back == A
            assert back.to_presentation() == text

    def test_missing_entry_rejected(self):
        with pytest.raises(PresentationError):
            parse_ring_document("kind = ring\nbasis_orders = 4 2\none = 1 0\n")

    def test_key_of_the_other_kind_rejected(self):
        # a radical ring has no identity, so its document has no `one` row
        text = RadicalRing(2, (2,), ((2,),)).to_presentation() + "one = 1\n"
        with pytest.raises(PresentationError, match="'one'"):
            RadicalRing.from_presentation(text)

    @pytest.mark.parametrize("cls, other, message", [
        (RadicalRing, zn_ring(4), "not a radical-ring document"),
        (FinCommRing, RadicalRing(2, (2,), ((2,),)), "not a unital-ring document")])
    def test_document_of_the_other_kind_is_malformed_text(self, cls, other,
                                                          message):
        # a well-formed document of the other kind is malformed text for
        # this one, not an invalid ring
        with pytest.raises(PresentationError, match=message) as caught:
            cls.from_presentation(other.to_presentation())
        assert type(caught.value) is PresentationError

    def test_comments_and_spacing(self):
        doc = parse_ring_document(
            "# header\nkind = radical\nprime = 2\nbasis_orders = 4\n"
            "mult[1][1] = 2   # x*x = 2x\n")
        assert doc["mult"] == ((2,),)


class TestCombinations:
    def test_parse_terms(self):
        free, tors = parse_combination("(1+z)*x + u + 3*y", ("u", "x"), ("y",))
        assert free == {"x": (1, 1), "u": (1,)}
        assert tors == {"y": 3}

    def test_zero(self):
        assert parse_combination("0", ("u",), ()) == ({}, {})

    def test_round_trip_negative(self):
        free = {"x": (-1, 2)}
        tors = {"y": 5, "w": 1}
        text = format_combination(free, tors)
        back_free, back_tors = parse_combination(text, ("x",), ("y", "w"))
        assert back_free == free and back_tors == tors

    def test_unknown_symbol(self):
        with pytest.raises(PresentationError):
            parse_combination("q", ("u",), ("y",))


class TestTnDocuments:
    def test_round_trip_shipped(self):
        for model in (load_example("paper-7-1"), load_example("paper-7-2-v2"),
                      load_example("paper-7-2-v4")):
            text = model.to_presentation()
            assert TnModel.from_presentation(text) == model

    def test_kind_required(self):
        with pytest.raises(PresentationError):
            parse_tn_document("conductor = 4\nfree_basis = u\ntors_basis =\n")

    @pytest.mark.parametrize("row, message", [
        ("mult y y = 0\n", "missing mult y y"),
        ("scalar_action y = y\n", "missing scalar_action for y")])
    def test_missing_row_is_malformed_text(self, row, message):
        # a row the document lacks is malformed text, not an invalid ring
        text = ("kind = tn\nconductor = 4\nfree_basis = u\ntors_basis = y:2\n"
                "scalar_action y = y\nmult u u = u\nmult u y = y\n"
                "mult y y = 0\n")
        assert row in text
        with pytest.raises(PresentationError, match=message):
            TnModel.from_presentation(text.replace(row, ""))

    def test_conductor_cap_is_fixed(self, monkeypatch):
        # FUCHS_ORACLE_CAP raises the enumeration caps, not this one
        monkeypatch.setenv("FUCHS_ORACLE_CAP", "100000")
        doc = "kind = tn\nconductor = {}\nfree_basis = u\nmult u u = u\n"
        assert parse_tn_document(doc.format(256))["conductor"] == 256
        with pytest.raises(CapExceeded, match="conductor 257"):
            parse_tn_document(doc.format(257))
