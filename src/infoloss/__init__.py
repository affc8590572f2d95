"""Testing whether a feature transformation loses information, and what it costs.

The package has three legs that share one discrete core:

* ``partition``: a sample-based L1 test of conditional independence of Y and
  X given Z = T(X); acceptance certifies that T is lossless for prediction.
* ``bounds``: information-theoretic certificates that translate the mutual
  information gap I(Y;X) - I(Y;T(X)) into excess-risk guarantees.
* ``portfolio``: the same gap bounding the loss of log-optimal investment
  growth when side information is coarsened.

``discrete`` carries the exact finite-alphabet computations everything else
is validated against, and ``synth`` the seeded generators used by the Monte
Carlo harness in ``montecarlo``, the CLI and the scripts.  Oracles and
generators that only the tests use live in ``tests/conftest.py``.

The imports below are the package's one list of public names; the modules
keep no ``__all__`` of their own.
"""

from .bounds import (
    BoundReport,
    SubgaussianProfile,
    bound_bounded_loss,
    bound_subgaussian,
    delta_lossless_bounded,
    dv_gap_check,
    family_lossless_check,
    hoeffding_profile,
    quantizer_sequence_bound,
)
from .discrete import (
    DeterministicMap,
    DiscreteJoint,
    LossMatrix,
    apply_map,
    bayes_risk,
    conditional_mutual_information,
    excess_risk,
    mutual_information,
    squared_loss,
    zero_one_loss,
)
from .montecarlo import ExperimentPlan, run_plan
from .partition import (
    C1_MIN,
    CubicPartition,
    Dataset,
    TestConfig,
    build_histogram,
    h_schedule,
    l_statistic,
    run_test,
    scale_unit,
    threshold,
    type1_bound,
)
from .portfolio import (
    MarketModel,
    c_max_bound,
    growth_gap_bound,
    log_optimal_portfolio,
)
from .selection import greedy_lossless_selection
from .serialize import (
    SchemaError,
    dataset_to_csv,
    joint_from_dict,
    joint_to_dict,
    load_json,
    loss_from_dict,
    loss_to_dict,
    map_from_dict,
    map_to_dict,
    market_from_dict,
    market_to_dict,
    read_dataset_csv,
    save_json,
    write_dataset_csv,
)
from .synth import (
    H0Config,
    H1Config,
    gen_h0,
    gen_h1,
    gen_market,
    gen_random_joint,
    gen_random_loss,
    philox,
)

__version__ = "0.1.0"
