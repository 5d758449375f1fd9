(** The perf trajectory: schema-versioned [BENCH_<n>.json] points.

    [bench/perf.ml] measures the macro-benchmarks (whole Andrew runs
    per protocol, and a sequential-vs-parallel campaign sweep) and
    records each milestone as an append-only [BENCH_<n>.json] file at
    the repo root. This module owns the format — emission with a fixed
    key order, strict parsing, and the regression comparison used by
    the CI bench smoke job. It is deliberately pure of clocks: wall
    time is measured by the bench binary and handed in as data, so
    everything here is unit-testable.

    Format (schema_version 1) — key order is fixed and asserted by
    tests so successive points diff cleanly:

    {v
    {
      "schema_version": 1,
      "point": 0,
      "label": "baseline",
      "quick": false,
      "results": [
        {"name": "andrew_snfs", "events": N, "host_seconds": S,
         "events_per_sec": E},
        ...
      ],
      "campaign": {"configs": C, "jobs": J, "seq_seconds": S,
                   "par_seconds": P, "speedup": X}
    }
    v}

    [events_per_sec] and [speedup] are derived fields written for human
    readers; parsing recomputes them from the primary fields. *)

(** One macro-benchmark measurement: simulation events executed and the
    host (wall-clock) seconds the run took. *)
type result = { name : string; events : int; host_seconds : float }

(** The campaign sweep measurement: the same [configs] seeded
    experiment configurations run with [jobs = 1] and with the recorded
    [jobs] count on separate domains. *)
type campaign = {
  configs : int;
  jobs : int;
  seq_seconds : float;
  par_seconds : float;
}

(** One point on the trajectory, i.e. one [BENCH_<n>.json] file. *)
type point = {
  schema_version : int;
  point : int;
  label : string;
  quick : bool;
  results : result list;
  campaign : campaign option;
}

(** The schema this build writes and reads. *)
val current_schema : int

(** [events / host_seconds]; 0 when the measurement is degenerate. *)
val events_per_sec : result -> float

(** [seq_seconds / par_seconds]; 0 when degenerate. *)
val speedup : campaign -> float

(** Find a named benchmark in a point. *)
val find_result : point -> string -> result option

(** Render a point in the fixed schema-1 layout. Floats use the
    shortest representation that round-trips exactly. *)
val to_json : point -> string

(** Raised by {!of_json} with a description of the first problem. *)
exception Malformed of string

(** Parse a point; strict about structure and about
    [schema_version] = {!current_schema}. [of_json (to_json p) = p]
    for every well-formed [p]. *)
val of_json : string -> point

(** [filename n] is ["BENCH_<n>.json"]. *)
val filename : int -> string

(** Smallest [n] for which [exists (filename n)] is false — the next
    free slot in the trajectory. Injected [exists] keeps this pure. *)
val next_index : exists:(string -> bool) -> int

(** Write a point to [path]; refuses (with [Error _]) to overwrite an
    existing file — the trajectory is append-only. *)
val write : path:string -> point -> (unit, string) Stdlib.result

(** A benchmark whose events/sec dropped by more than the allowed
    fraction between two points. *)
type regression = {
  bench : string;
  before_eps : float;
  after_eps : float;
  drop : float;  (** fraction of [before_eps] lost; > 0 means slower *)
}

(** Benchmarks present in both points whose events/sec dropped by more
    than [max_drop] (a fraction, e.g. [0.20]) from [before] to
    [after]. Empty means the comparison passes. *)
val regressions :
  before:point -> after:point -> max_drop:float -> regression list

(** A benchmark present in both points whose simulation executed a
    different number of events. *)
type event_mismatch = { name : string; before_events : int; after_events : int }

(** Benchmarks present in both points whose [events] differ. Event
    counts are deterministic, so this is an exact gate that runs next
    to the wall-clock {!regressions} one: empty means the simulation is
    unchanged. *)
val event_mismatches : before:point -> after:point -> event_mismatch list
