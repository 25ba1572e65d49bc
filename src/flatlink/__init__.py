"""flatlink: compile RDF N-Triples dumps into self-contained flat entity
records and 2-way / 3-way linkage files, deterministically and within a
bounded memory budget."""

from .errors import (
    ConfigError,
    EngineError,
    FlatlinkError,
    FlatRecordError,
    LinkJoinError,
    NTriplesParseError,
)
from .engine import ExecConfig, JobStats, external_sort, run_group_by
from .flat_record import (
    EntityRecord,
    escape_token,
    parse_record,
    record_from_triples,
    serialize_record,
    unescape_token,
)
from .kb_compile import CompileReport, KbSpec, compile_kb
from .link_join import (
    Join2Report,
    Join3Report,
    gen_link_id,
    join2,
    join3,
    load_ground_truth,
    parse_link_line,
)
from .rdf_ingest import (
    ObjectValue,
    ParseReport,
    Triple,
    iter_triples,
    parse_ntriples_line,
    render_triple,
)
from .tools import (
    SampleSpec,
    TypeFilterSpec,
    filter_by_type,
    sample_lines,
    stats,
    validate,
)

__version__ = "0.1.0"
