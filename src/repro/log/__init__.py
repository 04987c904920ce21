"""Query-log substrate: data model, IO, duplicate removal, sessions."""

from .models import LogRecord, QueryLog
from .dedup import DedupResult, delete_duplicates, threshold_sweep, normalize_statement_text
from .io import write_csv, write_jsonl
from .session import assume_single_user, derive_users_from_ip, sessionize_by_gap

__all__ = [
    "LogRecord",
    "QueryLog",
    "DedupResult",
    "delete_duplicates",
    "threshold_sweep",
    "normalize_statement_text",
    "write_csv",
    "write_jsonl",
    "assume_single_user",
    "derive_users_from_ip",
    "sessionize_by_gap",
]
