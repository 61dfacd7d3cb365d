"""fuchs: decide which finitely generated abelian groups are full unit
groups of rings, with brute-force finite-ring and TN-model oracles."""

from .caps import CapExceeded
from .abelian import (FgAbGroup, FinAbGroup, epsilon, format_group,
                      group_from_relations, is_lambda_small,
                      lambda_power_decompose, parse_group, prufer_rank,
                      smith_normal_form)
from .numtheory import (Factorization, HypothesisViolated,
                        PsFactor, cyclotomic_poly, euler_phi,
                        factor_cyclo_mod, factorize, is_fermat_prime,
                        mersenne_divisor_set, mult_order,
                        pearson_schneider_covers)
from .presentation import PresentationError
from .table import InvalidRing
from .radical import (RadicalRing, check_byott, check_small_theorem,
                      enumerate_radical_rings)
from .finring import (FinCommRing, LocalData, NotLocal, build_corpus,
                      localize, maximal_ideal_ring, unit_group,
                      verify_local_formula)
from .tnlab import (CycloBase, PrimePowerIdealQuotient, TnModel,
                    adjoint_of_nil_torsion, build_construction_model,
                    cyclotomic_quotient_group, load_example, nil_torsion,
                    quotient_torsion_units, sequence_splits,
                    torsion_units)
from .realize import (GeClass, NotInClass, certificate_check,
                      certificate_check_status, decide_any, decide_finite,
                      decide_tn, g_value, ge_classify, r_value,
                      verdict_to_json)
from .verdict import Verdict

__all__ = [name for name in dir() if not name.startswith("_")]
