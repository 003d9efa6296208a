"""susmine: life-cycle-grounded sustainability analysis of business
processes from object-centric event logs.

The analysis follows four composable patterns: flow inventories per
process component, characterization of flows into impact categories,
scoped (e.g. GHG Protocol) impact views, and conservation-checked
allocation of impacts between components. Results are emitted as a JSON
report, CSV projections, and an impact-annotated directly-follows graph.
"""

from .errors import (
    DuplicateSourceError,
    InexactSumError,
    IntegrityError,
    InvalidAllocationKeyError,
    LogMismatchError,
    MissingAttributeError,
    MissingFixtureError,
    NoConversionPathError,
    NonFiniteImpactError,
    NoTargetsError,
    SchemaError,
    SusmineError,
    UncharacterizedFlowError,
    UnitMismatchError,
    UnknownComponentError,
    UnknownScopeError,
    UnknownUnitError,
    ZeroOutputError,
)
from .model import (
    UNSCOPED,
    ComponentKind,
    ComponentRef,
    Direction,
    Event,
    EventLog,
    ObjectInstance,
    Quantity,
    Relation,
    Violation,
    resolve_component,
    validate_log,
)
from .units import UnitRegistry
from .ocel import parse_ocel
from .annotations import (
    AllocationKey,
    AllocationRule,
    AnnotatedLog,
    AnnotationBundle,
    Basis,
    CharacterizationTable,
    FlowAssignment,
    ImpactClass,
    ScopeSet,
    SCOPE_PRESETS,
    TableEntry,
    bind_annotations,
    empty_bundle,
    parse_annotations,
)
from .inventory import (
    FunctionalUnit,
    Inventory,
    direct_inventory,
    functional_unit_scale,
    rollup_inventory,
)
from .impact import Mode, characterize, classify_impacts
from .scoping import cumulative_view, scoped_impacts, scoped_total, unscoped_share
from .allocation import AllocationLedger, LedgerEntry, allocation_weights, apply_allocations
from .dfg import AnnotatedDFG, annotate_dfg, build_dfg, emit_dot
from .audit import CapabilityMatrix, SupportLevel, load_literature_matrix, pattern_audit
from .pipeline import PipelineResult, run_pipeline
from .report import build_report, inventory_to_csv, render_report, write_outputs
from .generator import GeneratedBundle, generate_bundle
from .fixtures import fixture_path, load_manifest, verify_fixtures

__version__ = "0.1.0"
