(* The shared observability term: --progress, --report and --metrics
   with the same spellings and behaviour on cspice, repro and cnt_char.

   --progress installs a live event sink on stderr (tty lines or JSONL)
   so stdout tables stay byte-identical with the flag on or off;
   --report writes a per-run JSON manifest; --metrics dumps the
   telemetry registry (counters + histograms as CSV, or Prometheus text
   exposition when the path ends in .prom).  --report/--metrics imply
   enabling the Cnt_obs registry so the snapshots have content.

   Write failures surface as [Cnt_spice.Diag.Output_write] — exit 2
   under the documented contract — never as an uncaught [Sys_error]. *)

open Cmdliner

type progress_mode = Off | Tty | Jsonl

type t = {
  progress : progress_mode;
  report : string option;
  metrics : string option;
}

let progress_arg =
  let mode = Arg.enum [ ("tty", Tty); ("jsonl", Jsonl) ] in
  let doc =
    "Stream live progress events to standard error: $(b,tty) renders \
     human-readable lines with percent/rate/ETA, $(b,jsonl) emits one JSON \
     object per event (milestone events carry no timing and are identical \
     on every run).  Standard-output tables are byte-identical with or \
     without this flag."
  in
  (* [some]: a plain [opt mode Off] makes cmdliner's --help raise, since
     [Off] has no spelling in [mode] *)
  Arg.(value & opt (some mode) None & info [ "progress" ] ~docv:"MODE" ~doc)

let report_arg =
  let doc =
    "Write a per-run JSON manifest to $(docv): resolved engine \
     configuration, host, per-analysis solver stats, waveform digests, a \
     telemetry snapshot and the structured outcome.  Implies enabling \
     telemetry."
  in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write the telemetry registry to $(docv) after the run: counters and \
     histogram quantiles as CSV, or Prometheus text exposition when $(docv) \
     ends in $(b,.prom).  Implies enabling telemetry."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let make progress report metrics =
  { progress = Option.value progress ~default:Off; report; metrics }
let term = Term.(const make $ progress_arg $ report_arg $ metrics_arg)

(* Install the progress sink and enable the registry before any
   analysis runs.  Progress goes to stderr by contract. *)
let init t =
  (match t.progress with
  | Off -> ()
  | Tty -> Cnt_obs.Progress.install (Cnt_obs.Progress.tty stderr)
  | Jsonl -> Cnt_obs.Progress.install (Cnt_obs.Progress.jsonl stderr));
  if t.report <> None || t.metrics <> None then Cnt_obs.Obs.enable ()

let write_file path payload =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc payload)

let metrics_payload path =
  if Filename.check_suffix path ".prom" then Cnt_obs.Report.prometheus ()
  else Cnt_obs.Report.counters_csv () ^ "\n" ^ Cnt_obs.Report.histograms_csv ()

(* Write the requested artefacts; the first failure wins but does not
   stop the remaining writes (a full disk should still leave whatever
   can be written). *)
let write_artifacts t manifest =
  let err = ref None in
  let attempt f =
    try f ()
    with Sys_error msg ->
      if !err = None then err := Some (Cnt_spice.Diag.Output_write msg)
  in
  Option.iter
    (fun path ->
      attempt (fun () -> Cnt_obs.Manifest.write manifest path))
    t.report;
  Option.iter
    (fun path -> attempt (fun () -> write_file path (metrics_payload path)))
    t.metrics;
  match !err with None -> Ok () | Some e -> Error e

(* Exit helper: artefact-write failures only take over the exit code of
   an otherwise successful run — an engine error already on its way out
   keeps its documented code, with the write failure reported on
   stderr. *)
let finish t manifest base_exit =
  match write_artifacts t manifest with
  | Ok () -> base_exit
  | Error e ->
      prerr_endline (Cnt_spice.Diag.error_message e);
      if base_exit = 0 then Cnt_spice.Diag.exit_code e else base_exit
