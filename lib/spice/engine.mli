(** Execute the analyses of a parsed deck and tabulate requested
    outputs. *)

type table = {
  analysis_label : string;
  columns : string array;
  rows : float array array;
  stats : Mna.stats;
      (** solver telemetry for this analysis; populated uniformly by
          DC, transient and AC paths *)
}

(** Every knob the analyses share, in one record.  Build one with
    {!config}, or with a functional update of {!default_config}:
    [{ Engine.default_config with max_iter = 400 }]. *)
type config = {
  gmin : float;  (** target node-to-ground conductance (default 1e-12) *)
  tol : float;  (** Newton convergence tolerance (default 1e-9) *)
  max_iter : int;  (** Newton iteration budget per solve (default 200) *)
  homotopy : Homotopy.policy;  (** convergence-ladder policy *)
  deadline : float option;
      (** wall-clock budget in seconds for the whole deck
          ([--deadline], or the [deadline_s] field of a [cntd]
          request).  Checked before every analysis and on every
          progress tick; a blown budget aborts the run with
          {!Diag.Deadline_exceeded} (exit 5).  Granularity is one
          progress tick, so a single solve that emits no ticks is only
          interrupted at its analysis boundary. *)
  model : string option;
      (** force every CNFET of the deck onto this device-model backend
          ([--model], or the [model] field of a [cntd] request) before
          any analysis runs, via {!Circuit.remodel}.  [None] falls back
          to {!Cnt_core.Device_model.default_override} ([CNT_MODEL]);
          when that is also unset each device keeps its deck-declared
          backend.  Naming the backend a device already uses is a
          physical no-op for that device, so a matching override is
          bitwise-free; unknown backends and cards the target backend
          rejects fail the run with {!Diag.Bad_deck}. *)
}

val default_config : config

val config :
  ?jobs:int ->
  ?gmin:float ->
  ?tol:float ->
  ?max_iter:int ->
  ?homotopy:Homotopy.policy ->
  ?deadline:float ->
  ?model:string ->
  unit ->
  config
(** Build a config; every omitted knob takes its {!default_config}
    value.  Prefer this over literal record construction — new fields
    never break builder call sites.  [jobs] is accepted and read by
    nothing: it is kept only because cnt-bench still passes it, and
    goes once cnt-bench stops. *)

val check_config : config -> (unit, string * string) result
(** Range-check the numeric knobs: [tol] finite and > 0, [gmin] finite
    and >= 0, [max_iter] >= 1 and [deadline] > 0 (not NaN) when
    set.  [Error (field, reason)] names the first bad field
    by its record label.  {!config} does not call it; every front end
    that builds a config from user input (CLI flags, cnt-rpc/1 request
    fields) does, and rejects the run as a usage error. *)

val resolved_model : config -> string option
(** The device-model backend override as it will apply: the config's
    [model] when set, else {!Cnt_core.Device_model.default_override}
    ([CNT_MODEL]); [None] means every device keeps its deck-declared
    backend.  Callers that pre-stage decks against an override (the
    [cntd] deck cache) key on this value. *)

val run_deck_result :
  ?config:config -> Parser.deck -> (table list, Diag.error) result
(** Run every analysis in deck order — the primary entry point.  When
    the deck has no [.print] directive, all node voltages are
    reported.  Never raises for deck- or solve-level problems:
    convergence failures return [Error (Convergence d)] with the full
    strategy trail in [d], semantic deck errors (unknown sources, bad
    ranges) return [Error (Bad_deck _)], and unexpected exceptions are
    captured as [Error (Internal _)] ([Out_of_memory] and
    [Stack_overflow] still propagate).  {!Diag.exit_code} maps the
    error to the CLI exit contract. *)

val pp_table : ?max_rows:int -> ?stats:bool -> Format.formatter -> table -> unit
(** Pretty-print a table; [~stats:true] appends a solver-statistics
    footer. *)

val table_to_csv : table -> string

(** {1 Run manifests}

    Sections for the per-run provenance record the CLIs write with
    [--report] (see {!Cnt_obs.Manifest}). *)

val config_manifest : config -> Cnt_obs.Manifest.json
(** The configuration {e as resolved}: a [None] model renders as the
    ambient default it will actually use, so two manifests differ
    exactly when the runs could. *)

val table_manifest : table -> Cnt_obs.Manifest.json
(** Analysis label, column names, row count, per-analysis solver stats
    and an MD5 digest of the exact row bit patterns
    ({!Cnt_obs.Manifest.digest_rows}) — pins the waveform without
    embedding it. *)
