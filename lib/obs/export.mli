(** Telemetry exporters.

    JSONL: one self-describing JSON object per line — a [meta] line
    (schema ["agrid-obs/1"], element counts), then one line per metric
    ([counter] / [gauge] / [histogram]), per span aggregate ([span]) and
    per retained snapshot ([snapshot]). Non-finite floats (quantiles of
    empty histograms) export as [null]. The format is documented in
    DESIGN.md ("Observability").

    CSV: three files via [Agrid_report.Csv] (metrics, spans, snapshots)
    for spreadsheet-side analysis. *)

val schema : string

val jsonl_lines : Sink.t -> string list
val to_jsonl : Sink.t -> string
val write_jsonl : string -> Sink.t -> unit

val summary_json :
  ?total_seconds:float -> ?sections:(string * Sink.t) list -> Sink.t -> string
(** One pretty-printed JSON document (schema ["agrid-bench-obs/1"]):
    per-span mean/p50/p95/p99/max/total wall times plus every counter and
    gauge — the payload of [BENCH_obs.json]. [?sections] adds named
    sub-profiles (e.g. the bench campaign sink) under a ["sections"]
    object, each with the same spans/counters/gauges shape, so the CI
    regression gate compares them with the same rules. *)

val write_csv_files : prefix:string -> Sink.t -> string list
(** Write [<prefix>_metrics.csv], [<prefix>_spans.csv] and
    [<prefix>_snapshots.csv]; returns the paths written. *)
