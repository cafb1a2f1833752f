(* Run the analyses of a parsed deck and tabulate the requested
   outputs. *)

module Obs = Cnt_obs.Obs
module Progress = Cnt_obs.Progress
module Manifest = Cnt_obs.Manifest
module Device_model = Cnt_core.Device_model

type table = {
  analysis_label : string;
  columns : string array; (* first column is the sweep/time variable *)
  rows : float array array;
  stats : Mna.stats; (* solver telemetry, uniform across analyses *)
}

(* One record for every knob the analyses share, replacing the
   [?gmin ?tol] optional-argument sprawl that each CLI used to thread
   separately. *)
type config = {
  gmin : float;
  tol : float;
  max_iter : int;
  homotopy : Homotopy.policy;
  deadline : float option;
      (* wall-clock budget in seconds for the whole deck; None: none *)
  model : string option;
      (* force every CNFET of the deck onto this device-model backend
         before analysis; None: Device_model.default_override ()
         (CNT_MODEL), else leave each device's deck-declared backend *)
}

let default_config =
  {
    gmin = 1e-12;
    tol = 1e-9;
    max_iter = 200;
    homotopy = Homotopy.default;
    deadline = None;
    model = None;
  }

(* The one way to build a config without spelling the whole record:
   every knob defaults to its [default_config] value, so adding a field
   never breaks builder call sites.  [jobs] is accepted and ignored:
   it is kept only for cnt-bench, which still passes it. *)
let config ?jobs:_ ?gmin ?tol ?max_iter ?homotopy ?deadline ?model () =
  {
    gmin = Option.value gmin ~default:default_config.gmin;
    tol = Option.value tol ~default:default_config.tol;
    max_iter = Option.value max_iter ~default:default_config.max_iter;
    homotopy = Option.value homotopy ~default:default_config.homotopy;
    deadline;
    model;
  }

(* Range-check the numeric knobs up front.  Out of range, each would
   run to a misleading outcome: a non-positive or NaN [tol] spends the
   whole Newton budget and reports a convergence failure, a negative
   [gmin] stamps a negative shunt, a NaN [deadline] never fires. *)
let check_config c =
  let bad field fmt = Printf.ksprintf (fun m -> Error (field, m)) fmt in
  if not (Float.is_finite c.tol && c.tol > 0.0) then
    bad "tol" "must be a finite number > 0 (got %g)" c.tol
  else if not (Float.is_finite c.gmin && c.gmin >= 0.0) then
    bad "gmin" "must be a finite number >= 0 (got %g)" c.gmin
  else if c.max_iter < 1 then bad "max_iter" "must be >= 1 (got %d)" c.max_iter
  else
    match c.deadline with
    | Some d when not (d > 0.0) -> bad "deadline" "must be > 0 (got %g)" d
    | _ -> Ok ()

(* The backend override that will actually apply: the config's [model]
   when set, else the ambient CNT_MODEL default.  An empty string
   counts as unset, matching {!Cnt_core.Device_model.default_override}
   — a CLI picks an empty CNT_MODEL up through the flag's env
   attachment, and it must still mean "no override". *)
let resolved_model config =
  match config.model with
  | Some "" | None -> Device_model.default_override ()
  | Some _ as m -> m

let default_prints circuit prints =
  if prints <> [] then prints
  else begin
    (* print every node voltage when the deck names nothing *)
    List.map (fun n -> Parser.Print_v n) (Circuit.nodes circuit)
  end

let call_label f arg = String.concat "" [ f; "("; arg; ")" ]

let print_label = function
  | Parser.Print_v n -> call_label "v" n
  | Parser.Print_i s -> call_label "i" s
  | Parser.Print_id d -> call_label "id" d

(* Analysis start/finish milestones around a table build, with the
   label fixed up front. *)
let with_progress ~analysis ~label build =
  if Progress.on () then Progress.emit (Progress.Analysis_start { analysis; label });
  let t = build () in
  if Progress.on () then
    Progress.emit
      (Progress.Analysis_finish { analysis; label; points = Array.length t.rows });
  t

(* A print item resolved once per table against the compiled circuit:
   the unknown it reads (-1: ground, which reads 0), or the CNFET whose
   drain current it evaluates from the solved node voltages.  A drain
   current probe is a one-row device table of its own: the backend's
   range kernel and five one-cell columns, owned by the table being
   built.  A read runs the kernel the assembly runs, so it allocates
   nothing and its current is {!Device_model.ids}'s, bitwise. *)
type probe =
  | Unknown of int
  | Drain_current of {
      d : int;
      g : int;
      s : int;
      kernel : Device_model.kernel;
      vgs : Device_model.vec;
      vds : Device_model.vec;
      i0 : Device_model.vec;
      gm : Device_model.vec;
      gds : Device_model.vec;
    }

let cell () = Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout 1 (fun _ -> 0.0)

(* The parser resolves every item of a deck's [.print] cards against
   its circuit, so these raise only on a deck built in code. *)
let probe circuit compiled = function
  | Parser.Print_v n -> Unknown (Mna.node_id compiled n)
  | Parser.Print_i s -> Unknown (Mna.branch_id compiled s)
  | Parser.Print_id name -> (
      match Circuit.find circuit name with
      | Some (Circuit.Cnfet { drain; gate; source; params; _ }) ->
          Drain_current
            {
              d = Mna.node_id compiled drain;
              g = Mna.node_id compiled gate;
              s = Mna.node_id compiled source;
              kernel = Device_model.kernel [| params.Circuit.model |];
              vgs = cell ();
              vds = cell ();
              i0 = cell ();
              gm = cell ();
              gds = cell ();
            }
      | Some _ ->
          invalid_arg (Printf.sprintf "id(%s): element is not a CNFET" name)
      | None -> invalid_arg (Printf.sprintf "id(%s): no such element" name))

(* Every item's probe, in print order, so the first bad item fails
   first. *)
let probes circuit compiled prints = Array.of_list (List.map (probe circuit compiled) prints)

let[@inline] volt x i = if i < 0 then 0.0 else x.(i)

(* The probe's value in solution [x]. *)
let[@inline] read x = function
  | Unknown i -> volt x i
  | Drain_current { d; g; s; kernel; vgs; vds; i0; gm; gds } ->
      let vs = volt x s in
      Bigarray.Array1.unsafe_set vgs 0 (volt x g -. vs);
      Bigarray.Array1.unsafe_set vds 0 (volt x d -. vs);
      Device_model.eval kernel ~fault_i0:false ~vgs ~vds ~i0 ~gm ~gds;
      Bigarray.Array1.unsafe_get i0 0

(* One table row: [lead] (the sweep or time value) when given, then
   every probe read in [x]. *)
let row ?lead probes x =
  let o = match lead with None -> 0 | Some _ -> 1 in
  let r = Array.make (o + Array.length probes) 0.0 in
  (match lead with Some v -> r.(0) <- v | None -> ());
  for k = 0 to Array.length probes - 1 do
    r.(o + k) <- read x probes.(k)
  done;
  r

let op_table ?(config = default_config) circuit prints =
  Obs.span "analysis.op" @@ fun () ->
  with_progress ~analysis:"op" ~label:"op" @@ fun () ->
  let r =
    Dc.operating_point ~gmin:config.gmin ~tol:config.tol
      ~max_iter:config.max_iter ~policy:config.homotopy circuit
  in
  let prints = default_prints circuit prints in
  let columns = Array.of_list (List.map print_label prints) in
  let probes = probes circuit r.Dc.compiled prints in
  {
    analysis_label = "op";
    columns;
    rows = [| row probes r.Dc.solution |];
    stats = Dc.stats r;
  }

let dc_table ?(config = default_config) circuit prints ~source ~start ~stop
    ~step =
  Obs.span "analysis.dc" @@ fun () ->
  let label = Printf.sprintf "dc %s %g %g %g" source start stop step in
  with_progress ~analysis:"dc" ~label @@ fun () ->
  let r =
    (* range validation raises Invalid_argument at the library level;
       from a deck it is a semantic error, not an internal one *)
    try
      Dc.sweep ~gmin:config.gmin ~tol:config.tol ~max_iter:config.max_iter
        ~policy:config.homotopy circuit ~source ~start ~stop ~step
    with Invalid_argument msg -> raise (Dc.Analysis_error msg)
  in
  let prints = default_prints circuit prints in
  let columns =
    Array.of_list (source :: List.map print_label prints)
  in
  let probes = probes circuit r.Dc.compiled prints in
  let rows =
    Array.mapi
      (fun i v -> row ~lead:v probes r.Dc.points.(i).Dc.solution)
      r.Dc.sweep_values
  in
  { analysis_label = label; columns; rows; stats = Dc.sweep_stats r }

let ac_table ?(config = default_config) circuit prints ~per_decade ~fstart
    ~fstop =
  Obs.span "analysis.ac" @@ fun () ->
  let label = Printf.sprintf "ac dec %d %g %g" per_decade fstart fstop in
  with_progress ~analysis:"ac" ~label @@ fun () ->
  let freqs = Ac.decade_frequencies ~start:fstart ~stop:fstop ~per_decade in
  let r =
    Ac.run ~gmin:config.gmin ~tol:config.tol ~max_iter:config.max_iter
      ~policy:config.homotopy circuit ~freqs
  in
  let prints = default_prints circuit prints in
  let columns =
    Array.of_list
      ("freq_hz"
      :: List.concat_map
           (fun p ->
             let label = print_label p in
             [ label ^ "_mag_db"; label ^ "_phase_deg" ])
           prints)
  in
  let phasors =
    List.map
      (function
        | Parser.Print_v n -> Ac.voltage r n
        | Parser.Print_i s -> Ac.vsource_current r s
        | Parser.Print_id _ ->
            invalid_arg "id() print items are not supported in AC analyses")
      prints
  in
  let rows =
    Array.mapi
      (fun i f ->
        Array.of_list
          (f
          :: List.concat_map
               (fun ph ->
                 [
                   20.0 *. log10 (Float.max (Complex.norm ph.(i)) 1e-300);
                   Complex.arg ph.(i) *. 180.0 /. Float.pi;
                 ])
               phasors))
      freqs
  in
  { analysis_label = label; columns; rows; stats = r.Ac.stats }

let tran_table ?(config = default_config) circuit prints ~tstep ~tstop =
  Obs.span "analysis.tran" @@ fun () ->
  let label = Printf.sprintf "tran %g %g" tstep tstop in
  with_progress ~analysis:"tran" ~label @@ fun () ->
  let r =
    Transient.run ~gmin:config.gmin ~tol:config.tol ~policy:config.homotopy
      circuit ~tstep ~tstop
  in
  let prints = default_prints circuit prints in
  let columns = Array.of_list ("time" :: List.map print_label prints) in
  let probes = probes circuit r.Transient.compiled prints in
  let rows =
    Array.mapi
      (fun i t -> row ~lead:t probes r.Transient.solutions.(i))
      r.Transient.times
  in
  { analysis_label = label; columns; rows; stats = Transient.stats r }

(* Wall-clock deadline enforcement.  The budget covers the whole deck:
   a check runs before every analysis, and a progress sink checks on
   every tick the analyses emit (sweep points, transient steps,
   samples), raising {!Diag.Deadline} out of the emitting analysis.
   Granularity is therefore one
   progress tick: a single Newton solve that emits nothing (an .op
   card) is only interrupted at its analysis boundary.  Installing the
   sink turns the progress stream on, which costs one branch per call
   site — only paid when a deadline is actually set. *)
let with_deadline ~budget_s f =
  let t0 = Unix.gettimeofday () in
  let check () =
    let elapsed_s = Unix.gettimeofday () -. t0 in
    if elapsed_s > budget_s then raise (Diag.Deadline { budget_s; elapsed_s })
  in
  Progress.with_sink (Progress.sink (fun _ev -> check ())) (fun () -> f check)

(* Force the deck's CNFETs onto the resolved backend override.  An
   override naming the backend every device already uses returns the
   circuit physically unchanged ({!Circuit.remodel}), so compile and
   deck caches keyed on physical identity stay hot and results are
   bitwise those of the un-overridden run.  Unknown backends are
   rejected here — a deck with no CNFETs would otherwise accept any
   name silently. *)
let apply_model_override config circuit =
  match resolved_model config with
  | None -> circuit
  | Some backend -> (
      match Device_model.find backend with
      | None ->
          raise
            (Dc.Analysis_error
               (Printf.sprintf "unknown device-model backend %S (known: %s)"
                  backend
                  (Device_model.backend_names ())))
      | Some _ -> (
          try Circuit.remodel circuit ~backend
          with Circuit.Bad_circuit msg -> raise (Dc.Analysis_error msg)))

(* The raising core behind [run_deck_result]. *)
let run_deck_exn ~config (deck : Parser.deck) =
  let circuit = apply_model_override config deck.Parser.circuit in
  let run check =
    List.map
      (fun analysis ->
        check ();
        match analysis with
        | Parser.Op -> op_table ~config circuit deck.Parser.prints
        | Parser.Dc_sweep { source; start; stop; step } ->
            dc_table ~config circuit deck.Parser.prints ~source ~start ~stop
              ~step
        | Parser.Tran { tstep; tstop } ->
            tran_table ~config circuit deck.Parser.prints ~tstep ~tstop
        | Parser.Ac_sweep { per_decade; fstart; fstop } ->
            ac_table ~config circuit deck.Parser.prints ~per_decade ~fstart
              ~fstop)
      deck.Parser.analyses
  in
  match config.deadline with
  | None -> run ignore
  | Some budget_s -> with_deadline ~budget_s run

let run_deck_result ?(config = default_config) deck =
  match run_deck_exn ~config deck with
  | tables -> Ok tables
  | exception Diag.Convergence_failure d -> Error (Diag.Convergence d)
  | exception Diag.Deadline { budget_s; elapsed_s } ->
      Error (Diag.Deadline_exceeded { budget_s; elapsed_s })
  | exception Parser.Parse_error msg -> Error (Diag.Parse msg)
  | exception Dc.Analysis_error msg
  | exception Transient.Analysis_error msg
  | exception Ac.Analysis_error msg ->
      Error (Diag.Bad_deck msg)
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception e -> Error (Diag.Internal (Printexc.to_string e))

(* The C primitive [Printf]'s [%g] conversions end in: [Printf]'s
   ["%-14.6g"] is this primitive's ["%.6g"] text padded on the right to
   14 columns. *)
external format_float : string -> float -> string = "caml_format_float"

(* One table line: every cell's text left-justified in 14 columns and
   the cells joined by tabs, byte for byte what joining
   [Printf.sprintf "%-14s"] (or ["%-14.6g"]) cells would give. *)
let pp_line fmt buf cells cell =
  Buffer.clear buf;
  Array.iteri
    (fun k c ->
      if k > 0 then Buffer.add_char buf '\t';
      let text = cell c in
      Buffer.add_string buf text;
      for _ = String.length text to 13 do
        Buffer.add_char buf ' '
      done)
    cells;
  Format.fprintf fmt "%s@." (Buffer.contents buf)

let pp_table ?(max_rows = max_int) ?(stats = false) fmt t =
  Format.fprintf fmt "* %s@." t.analysis_label;
  let buf = Buffer.create 256 in
  pp_line fmt buf t.columns Fun.id;
  let n = Array.length t.rows in
  let shown = min n max_rows in
  for i = 0 to shown - 1 do
    pp_line fmt buf t.rows.(i) (format_float "%.6g")
  done;
  if shown < n then Format.fprintf fmt "... (%d more rows)@." (n - shown);
  if stats then Format.fprintf fmt "%a@." Mna.pp_stats t.stats

(* ------------------------------------------------------------------ *)
(* Manifest sections                                                   *)
(* ------------------------------------------------------------------ *)

(* The configuration as it will actually run: optional knobs resolve to
   their ambient defaults, so two manifests disagree exactly when the
   runs could behave differently. *)
let config_manifest (c : config) =
  let p = c.homotopy in
  Manifest.Obj
    [
      ("gmin", Manifest.Float c.gmin);
      ("tol", Manifest.Float c.tol);
      ("max_iter", Manifest.Int c.max_iter);
      ( "homotopy",
        Manifest.Obj
          [
            ("damped", Manifest.Bool p.Homotopy.damped);
            ("gmin_stepping", Manifest.Bool p.Homotopy.gmin_stepping);
            ("source_stepping", Manifest.Bool p.Homotopy.source_stepping);
            ("gmin_source", Manifest.Bool p.Homotopy.gmin_source);
            ("gmin_start", Manifest.Float p.Homotopy.gmin_start);
            ("gmin_steps", Manifest.Int p.Homotopy.gmin_steps);
            ("source_steps", Manifest.Int p.Homotopy.source_steps);
          ] );
      ( "deadline_s",
        match c.deadline with
        | None -> Manifest.Null
        | Some s -> Manifest.Float s );
      ( "model",
        (* the backend override as it will apply (config, else
           CNT_MODEL); Null means every device keeps its deck-declared
           backend *)
        match resolved_model c with
        | None -> Manifest.Null
        | Some b -> Manifest.String b );
    ]

(* One analysis result pinned by shape, solver stats and an MD5 of the
   exact row bits — enough to prove two runs produced the same
   waveform without embedding it. *)
let table_manifest t =
  let s = t.stats in
  Manifest.Obj
    [
      ("analysis", Manifest.String t.analysis_label);
      ( "columns",
        Manifest.List
          (Array.to_list (Array.map (fun c -> Manifest.String c) t.columns)) );
      ("rows", Manifest.Int (Array.length t.rows));
      ("digest_md5", Manifest.String (Manifest.digest_rows t.rows));
      ( "stats",
        Manifest.Obj
          [
            ("backend", Manifest.String s.Mna.backend);
            ("unknowns", Manifest.Int s.Mna.unknowns);
            ("nonzeros", Manifest.Int s.Mna.nonzeros);
            ("newton_iterations", Manifest.Int s.Mna.newton_iterations);
            ("linear_solves", Manifest.Int s.Mna.linear_solves);
            ("device_evals", Manifest.Int s.Mna.device_evals);
            ("assemble_s", Manifest.Float s.Mna.assemble_s);
            ("solve_s", Manifest.Float s.Mna.solve_s);
            ("residual", Manifest.Float s.Mna.residual);
          ] );
    ]

let table_to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (String.concat "," (Array.to_list t.columns));
  Buffer.add_char buf '\n';
  Array.iter
    (fun row ->
      Buffer.add_string buf
        (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.9g") row)));
      Buffer.add_char buf '\n')
    t.rows;
  Buffer.contents buf
