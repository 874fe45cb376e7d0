"""Input checks across the library: each raises a plain ValueError with its exact message."""

import re

import numpy as np
import pytest

from chaoslab import (ChaosElement, ChaosVector, MultilinearSpec, basis_element,
                      carre_du_champ, evaluate_batch, linear_combine, make_kernel,
                      multiply, pair_sum_kernel, peccati_tudor_run, project,
                      rademacher_average, sample)
from chaoslab.kernels import BipartiteKernel, kernel_add, symmetrize

E1 = basis_element(1, 1)
E2 = basis_element(2, 1)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: multiply(E1, E2), "dim mismatch: 1 vs 2", id="multiply-dim"),
    pytest.param(lambda: carre_du_champ(E2, E1), "dim mismatch: 2 vs 1",
                 id="carre_du_champ-dim"),
    pytest.param(lambda: linear_combine([]), "empty combination", id="linear_combine-empty"),
    pytest.param(lambda: project(E1, -1), "projection order must be >= 0",
                 id="project-negative"),
    pytest.param(lambda: ChaosElement(0), "dim must be >= 1", id="ChaosElement-dim"),
    pytest.param(lambda: basis_element(2, 3), "label 3 outside 1..2",
                 id="basis_element-label"),
    pytest.param(lambda: evaluate_batch(E2, np.zeros((4, 3))),
                 "points must have shape (N, 2)", id="evaluate_batch-shape"),
    pytest.param(lambda: sample(E1, 0, seed=1), "need n_samples >= 1", id="sample-count"),
    pytest.param(lambda: make_kernel(2, 0, []), "dim must be >= 1", id="make_kernel-dim"),
    pytest.param(lambda: kernel_add(make_kernel(1, 2, [((1,), 1.0)]),
                                    make_kernel(2, 2, [((1, 1), 1.0)])),
                 "kernel add requires matching order and dim", id="kernel_add-mismatch"),
    pytest.param(lambda: symmetrize(BipartiteKernel(0, 0, 2, {})),
                 "cannot symmetrize an order-0 kernel; read the scalar directly",
                 id="symmetrize-order-0"),
    pytest.param(lambda: pair_sum_kernel(0), "need n >= 1 pairs", id="pair_sum_kernel-0"),
    pytest.param(lambda: rademacher_average(0), "need n >= 1 coordinates",
                 id="rademacher_average-0"),
    pytest.param(lambda: MultilinearSpec({(0,): 1.0}), "labels must be >= 1 in (0,)",
                 id="MultilinearSpec-label-0"),
    pytest.param(lambda: MultilinearSpec({(1,): 1.0}, law="discrete",
                                         law_values=(-1.0, 1.0), law_probs=(0.7, 0.7)),
                 "discrete law probs must be a distribution", id="MultilinearSpec-probs"),
    pytest.param(lambda: MultilinearSpec({(1,): 1.0}, law="cauchy"), "unknown law 'cauchy'",
                 id="MultilinearSpec-law"),
    pytest.param(lambda: peccati_tudor_run([1, 2], [(1.0, ChaosVector((E2, E2, E2)))],
                                           np.eye(2), 1000, seed=1),
                 "vector at 1.0 has 3 components, expected 2",
                 id="peccati_tudor_run-components"),
])
def test_refused_with_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is ValueError  # not a SchemaError or OrderCapError
