"""chaoslab: a numerical laboratory for Wiener chaos over a finite
Gaussian space.

The pieces, bottom to top:

- kernels:     sparse symmetric tensors, contractions, Hermite polynomials
- chaos:       chaos expansions, exact moments, Malliavin operators, sampling
- distances:   Monte Carlo TV / Fortet-Mourier / Wasserstein estimators
- experiments: one runnable experiment per convergence theorem
- io / cli:    JSON file formats, reports, command-line front door
"""

from .kernels import (BipartiteKernel, SymmetricKernel, contract,
                      hermite_eval, inner, kernel_add, make_kernel,
                      perm_count, slice_label, sym_contract, symmetrize,
                      zero_kernel)
from .chaos import (ORDER_CAP, ChaosElement, ChaosVector, OrderCapError,
                    basis_element, carre_du_champ, check_ibp, constant_element,
                    covariance, det_chaos, evaluate, evaluate_batch, expectation,
                    expectation_of_product, linear_combine, malliavin_matrix,
                    mderiv, moment, multiply, ou_generator, project, sample,
                    single_integral, variance)
from .distances import (DegenerateSampleError, DistanceEstimate,
                        fm_two_samples, small_ball, tv_multivariate,
                        tv_two_samples, tv_vs_density, wasserstein1)
from .experiments import (ExperimentReport, MultilinearSpec,
                          carbery_wright_probe, d12_rate_probe,
                          df_small_ball_probe, dm_rate,
                          fourth_moment_certificate, identity_suite,
                          moo_invariance, multilinear_eval,
                          multilinear_to_chaos, pair_sum_element,
                          pair_sum_kernel, pair_sum_vector,
                          peccati_tudor_run, rademacher_average,
                          sample_multilinear, shigekawa_rate)

__version__ = "0.1.0"
