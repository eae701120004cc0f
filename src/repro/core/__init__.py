"""The paper's contribution: FSteal, OSteal, cost model, GUM engine."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.milp": (
        "FStealProblem", "FStealSolution", "FStealSolver", "GreedySolver",
        "LPRoundingSolver", "BranchAndBoundSolver", "HiGHSSolver",
        "SOLVERS", "make_solver", "AssemblyWorkspace",
    ),
    "repro.core.decision_cache": (
        "PlanCache", "LruDict", "plan_fingerprint", "quantize",
        "repair_assignment",
    ),
    "repro.core.costmodel": (
        "CostModel", "LinearSGDModel", "PolynomialSGDModel",
        "DecisionTreeModel", "KernelRidgeModel", "UniformCostModel",
        "OracleCostModel", "MODEL_FAMILIES", "FitReport", "rmsre",
        "OnlineRMSRE", "pretrained_default", "COSTMODEL_SCHEMA",
        "save_artifact", "load_artifact",
    ),
    "repro.core.costmodel_fit": (
        "collect_training_data", "default_training_corpus",
        "HarvestedCorpus", "FitOutcome", "harvest", "fit_candidates",
    ),
    "repro.core.fsteal": ("build_cost_matrix",),
    "repro.core.reduction_tree": ("ReductionTree",),
    "repro.core.osteal": ("OStealDecision", "plan_osteal"),
    "repro.core.hubcache": ("HubCache",),
    "repro.core.arbitrator": ("GumConfig", "GumScheduler"),
    "repro.core.gum": ("GumEngine",),
})
