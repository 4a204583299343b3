"""The record classes keep their constructors, defaults, equality and, for
the immutable ones, their refusal of assignment."""

import pickle
from fractions import Fraction as F

import pytest

from symmrel.families import FamilySpec, get_family
from symmrel.polyring import MultiPoly
from symmrel.relations import RelationReport, Stage, _family_source
from symmrel.solver import AEliminationReport, CSolution, NonlinearRelationReport
from symmrel.symmfunc import PowerSumExpansion


def _expansion():
    return PowerSumExpansion(2, 3, {(2, 0): F(1, 2), (0, 1): F(-3)})


class TestFamilySpec:
    def test_positional_and_keyword_construction(self):
        bell = get_family("bell")
        fields = (bell.name, bell.a_coeff, bell.b_norm, bell.s0, bell.gf_note, bell.a_note)
        by_keyword = FamilySpec(
            name=bell.name,
            a_coeff=bell.a_coeff,
            b_norm=bell.b_norm,
            s0=bell.s0,
            gf_note=bell.gf_note,
            a_note=bell.a_note,
        )
        assert FamilySpec(*fields) == by_keyword == bell
        assert by_keyword.coefficients(3) == [F(1)] * 3

    def test_an_equal_copy_hashes_the_same_and_shares_the_source(self):
        bell = get_family("bell")
        copy = FamilySpec(bell.name, bell.a_coeff, bell.b_norm, bell.s0, bell.gf_note, bell.a_note)
        assert copy is not bell
        assert copy == bell
        assert hash(copy) == hash(bell)
        assert _family_source(copy, 3) is _family_source(bell, 3)

    def test_families_with_different_fields_differ(self):
        assert get_family("bell") != get_family("bernoulli")

    def test_assignment_is_refused(self):
        bell = get_family("bell")
        with pytest.raises(AttributeError):
            bell.name = "other"
        with pytest.raises(AttributeError):
            bell.extra = 1


class TestCSolution:
    FIELDS = (3, ((3, 0, 0), (1, 1, 0)), ((1, 1, 0),), {(3, 0, 0): {(1, 1, 0): F(2)}}, 4)

    def test_positional_and_keyword_construction(self):
        n, key_order, free_keys, dependent, equations = self.FIELDS
        by_keyword = CSolution(
            n=n, key_order=key_order, free_keys=free_keys, dependent=dependent, equations=equations
        )
        assert CSolution(*self.FIELDS) == by_keyword
        assert by_keyword.nullspace_dimension == 1
        assert by_keyword.coefficient_map({(1, 1, 0): 5}) == {(3, 0, 0): F(10), (1, 1, 0): F(5)}

    def test_value_equality(self):
        assert CSolution(*self.FIELDS) != CSolution(*self.FIELDS[:-1], 5)

    def test_assignment_is_refused(self):
        solution = CSolution(*self.FIELDS)
        with pytest.raises(AttributeError):
            solution.equations = 0
        with pytest.raises(AttributeError):
            solution.extra = 1


class TestPowerSumExpansion:
    def test_positional_and_keyword_construction(self):
        coefficients = {(2, 0): F(1, 2), (0, 1): F(-3)}
        by_keyword = PowerSumExpansion(weight=2, num_vars=3, coefficients=coefficients)
        assert PowerSumExpansion(2, 3, coefficients) == by_keyword
        assert by_keyword.coefficients == coefficients
        assert by_keyword.coefficients is not coefficients

    def test_the_callers_mapping_is_copied(self):
        # A caller that changes its own dict afterwards changes neither the
        # expansion nor its weight.
        c = {(2, 0): F(1)}
        e = PowerSumExpansion(2, 3, c)
        c[(1,)] = F(5)
        assert e.coefficients == {(2, 0): F(1)}
        assert e.to_polynomial() == (MultiPoly.x(1) + MultiPoly.x(2) + MultiPoly.x(3)) ** 2

    def test_default_coefficients_are_empty_and_not_shared(self):
        first, second = PowerSumExpansion(2, 3), PowerSumExpansion(4, 1)
        assert first.coefficients == {} and first.is_zero()
        assert first.coefficients is not second.coefficients

    def test_a_key_of_the_wrong_weight_is_refused(self):
        with pytest.raises(ValueError, match="does not have weight 2"):
            PowerSumExpansion(2, 3, {(1, 1): F(1)})

    def test_equality_reads_absent_keys_as_zero(self):
        sparse = PowerSumExpansion(2, 3, {(2, 0): F(1, 2)})
        assert sparse == PowerSumExpansion(2, 3, {(2, 0): F(1, 2), (0, 1): F(0)})
        assert sparse != PowerSumExpansion(2, 3, {(2, 0): F(1, 2), (0, 1): F(1)})
        assert sparse != PowerSumExpansion(2, 4, {(2, 0): F(1, 2)})

    def test_assignment_and_deletion_are_refused(self):
        expansion = _expansion()
        with pytest.raises(AttributeError):
            expansion.weight = 3
        with pytest.raises(AttributeError):
            expansion.extra = 1
        with pytest.raises(AttributeError):
            del expansion.coefficients
        assert expansion.weight == 2

    def test_pickle_round_trip(self):
        expansion = _expansion()
        assert pickle.loads(pickle.dumps(expansion)) == expansion


class TestStage:
    def test_positional_and_keyword_construction(self):
        stage = Stage("expand", "", 0.5)
        assert stage == Stage(name="expand", detail="", seconds=0.5)
        assert (stage.name, stage.detail, stage.seconds) == ("expand", "", 0.5)
        assert stage.to_json() == {"name": "expand", "detail": ""}

    def test_value_equality(self):
        assert Stage("expand", "", 0.5) != Stage("expand", "", 0.25)
        assert Stage("expand", "", 0.5) != ("expand", "", 0.5)

    def test_a_stage_is_mutable_and_unhashable(self):
        stage = Stage("expand", "", 0.0)
        stage.seconds = 1.0
        assert stage.seconds == 1.0
        with pytest.raises(TypeError):
            hash(stage)


class TestRelationReport:
    def test_positional_and_keyword_construction_with_defaults(self):
        report = RelationReport("C1", 1, 2, "bell", "verified")
        assert report == RelationReport(
            conjecture_id="C1", n=1, m=2, source_label="bell", verdict="verified"
        )
        assert report.witness is None and report.extracted is None
        assert report.stages == []
        assert report.verified

    def test_every_report_has_its_own_stages(self):
        first = RelationReport("C1", 1, 2, "bell", "unknown")
        second = RelationReport("C1", 1, 2, "bell", "unknown")
        first.stages.append(Stage("expand", "", 0.0))
        assert second.stages == []
        assert first != second

    def test_value_equality_covers_every_field(self):
        witness = MultiPoly.a(1)
        full = RelationReport("C2", 3, 2, "bell", "falsified", witness, _expansion(), [])
        assert full == RelationReport("C2", 3, 2, "bell", "falsified", witness, _expansion(), [])
        assert full != RelationReport("C2", 3, 2, "bell", "falsified", witness, None, [])
        assert full.to_json()["extracted"]["weight"] == 2


@pytest.mark.parametrize("report_class", [AEliminationReport, NonlinearRelationReport])
class TestCheckReports:
    def test_positional_and_keyword_construction_with_defaults(self, report_class):
        report = report_class()
        assert report.entries == [] and report.all_ok is True
        entries = [(2, F(1), F(1), True)]
        assert report_class(entries, False) == report_class(entries=entries, all_ok=False)
        assert report_class(entries, False) != report_class(entries, True)

    def test_every_report_has_its_own_entries(self, report_class):
        first, second = report_class(), report_class()
        first.entries.append((2, F(1), F(1), True))
        assert second.entries == []
        assert first != second


def test_check_reports_of_different_classes_differ():
    assert AEliminationReport() != NonlinearRelationReport()
