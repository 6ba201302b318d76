"""Co-change recommendation over git histories.

The package mines association rules from version history changesets and
compares three ways of reading that history: the full commit graph, the
first-parent chain without merge diffs, and the first-parent chain with
squashed merge diffs.  It also ships the paired evaluation protocol and
the branch-characteristics analyses built on top of it.
"""

from .history import (
    Commit,
    CommitGraph,
    EntryOrigin,
    Strategy,
    additional_changes,
    ancestors_all,
    ancestors_first_parent,
    branch_commits,
    branch_length,
    merge_base,
    merge_commit_size,
    strategy_walk,
)
from .mining import (
    AssociationRule,
    Transaction,
    apriori,
    confidence,
    filter_rules,
    single_consequent_rules,
    support,
)
from .recommend import (
    Collector,
    PipelineRun,
    Query,
    Recommendation,
    RecommendationEntry,
    RecommenderConfig,
    collect_commits,
    recommend,
)
from .evaluation import (
    EvaluationRecord,
    ExperimentResult,
    Outcome,
    PairedVerdict,
    TestCase,
    WilcoxonResult,
    aggregate_rates,
    classify,
    eligible,
    generate_test_cases,
    map_all,
    map_app,
    pairwise_verdict,
    repo_level_winner,
    run_experiment,
    wilcoxon_signed_rank,
)
from .branches import (
    BranchInfo,
    CauseAttributionError,
    CausalDiagnosis,
    CochangeMode,
    Cohort,
    PrecisionRecord,
    StudyDiagnostics,
    WinnerRateBin,
    added_cochange_count,
    branch_info,
    cochange_study,
    cochanged_files,
    diagnose_causes,
    eligible_merges_for_cochange,
    future_oracle,
    precision,
    sample_heavy_merges,
    winner_rate_table,
)
from .ingest import (
    IngestError,
    SnapshotError,
    ingest_repository,
    load_snapshot,
    save_snapshot,
)

__version__ = "0.1.0"

# The import block above is the one list of public names: __all__ is every
# imported name defined in a cochange module (the submodule objects the
# imports also bind are left out).
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_")
    and getattr(value, "__module__", "").startswith("cochange.")
)
