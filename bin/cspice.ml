(* Run a SPICE-dialect netlist with CNFET devices.

     cspice inverter.cir
     cspice --csv results/ inverter.cir
     cspice --stats ring.cir
     cspice --profile ring.cir
     cspice --trace out.json ring.cir     # load in chrome://tracing
     cspice --connect /tmp/cntd.sock ring.cir   # run on a cntd daemon

   With --connect the deck executes on a running cntd daemon
   (docs/SERVER.md) and the tables come back float-exactly over the
   wire; both paths print through the same rendering code, so stdout is
   byte-identical online and offline. *)

open Cmdliner

(* Latency distributions of the busiest span positions, rendered as
   ASCII histograms under the profile tree. *)
let print_latency_histograms () =
  let candidates =
    Cnt_obs.Report.span_durations ()
    |> List.filter (fun (_, ds) -> Array.length ds >= 8)
    |> List.map (fun (path, ds) -> (Array.fold_left ( +. ) 0.0 ds, path, ds))
    |> List.sort (fun (a, _, _) (b, _, _) -> compare b a)
  in
  List.iteri
    (fun i (total, path, ds) ->
      if i < 4 then begin
        let us = Array.map (fun d -> d *. 1e6) ds in
        print_newline ();
        Cnt_experiments.Ascii_plot.print_histogram
          ~title:
            (Printf.sprintf "%s latency (us; %d spans, %.3g s total)" path
               (Array.length ds) total)
          us
      end)
    candidates

let print_profile () =
  print_newline ();
  print_string (Cnt_obs.Report.render_profile ());
  print_latency_histograms ()

(* Exit-code contract (docs/CONVERGENCE.md): 0 success, 2 parse or
   usage error, 3 convergence failure (the strategy trail is printed to
   stderr), 4 internal error, 5 deadline exceeded. *)
let exit_ok = 0
let exit_usage = 2
let exit_internal = 4

(* Print the profile and write the Chrome trace; an unwritable trace
   path is a structured output error, not an uncaught Sys_error. *)
let finish_telemetry ~profile ~trace =
  if profile then print_profile ();
  match trace with
  | None -> None
  | Some out -> (
      try
        Cnt_obs.Trace.write out;
        Printf.printf "wrote Chrome trace %s (load in chrome://tracing)\n" out;
        None
      with Sys_error msg -> Some (Cnt_spice.Diag.Output_write msg))

let ok_outcome =
  Cnt_obs.Manifest.Obj
    [ ("status", Cnt_obs.Manifest.String "ok"); ("exit_code", Cnt_obs.Manifest.Int 0) ]

let error_outcome err = Cnt_obs.Manifest.Raw (Cnt_spice.Diag.error_json err)

(* Every exit path funnels through here: snapshot the registry into the
   manifest, flush profile/trace, then write --report/--metrics.
   Artefact-write failures print to stderr and only take over the exit
   code of an otherwise successful run. *)
let epilogue ~profile ~trace ~obs ~manifest ~outcome code =
  Cnt_obs.Manifest.set manifest "obs" (Cnt_obs.Manifest.obs_snapshot ());
  Cnt_obs.Manifest.set manifest "outcome" outcome;
  let code =
    match finish_telemetry ~profile ~trace with
    | None -> code
    | Some e ->
        prerr_endline (Cnt_spice.Diag.error_message e);
        if code = exit_ok then Cnt_spice.Diag.exit_code e else code
  in
  Cnt_cli.Cli_obs.finish obs manifest code

let set_netlist manifest ~path ~title =
  Cnt_obs.Manifest.set manifest "netlist"
    (Cnt_obs.Manifest.Obj
       [
         ("path", Cnt_obs.Manifest.String path);
         ("title", Cnt_obs.Manifest.String title);
       ])

(* Print the tables, write the CSVs and record the analyses manifest
   section.  Shared verbatim by the offline and --connect paths, so
   their stdout cannot diverge.  Returns the first CSV write failure. *)
let render_tables ~csv_dir ~max_rows ~stats ~path ~manifest tables =
  if tables = [] then
    prerr_endline
      "warning: netlist contains no analysis directive (.op/.dc/.tran)";
  Cnt_obs.Manifest.set manifest "analyses"
    (Cnt_obs.Manifest.List (List.map Cnt_spice.Engine.table_manifest tables));
  let csv_err = ref None in
  List.iteri
    (fun i t ->
      Format.printf "%a@." (Cnt_spice.Engine.pp_table ~max_rows ~stats) t;
      match csv_dir with
      | None -> ()
      | Some dir -> (
          try
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
            let base = Filename.remove_extension (Filename.basename path) in
            let out = Filename.concat dir (Printf.sprintf "%s_%d.csv" base i) in
            let oc = open_out out in
            output_string oc (Cnt_spice.Engine.table_to_csv t);
            close_out oc;
            Printf.printf "saved %s\n" out
          with Sys_error msg ->
            if !csv_err = None then
              csv_err := Some (Cnt_spice.Diag.Output_write msg)))
    tables;
  !csv_err

let finish_tables ~epilogue csv_err =
  match csv_err with
  | None -> epilogue ~outcome:ok_outcome exit_ok
  | Some e ->
      prerr_endline (Cnt_spice.Diag.error_message e);
      epilogue ~outcome:(error_outcome e) (Cnt_spice.Diag.exit_code e)

let run_offline ~epilogue ~manifest ~config ~render ~path text =
  match Cnt_spice.Parser.parse ~file:path text with
  | exception Cnt_spice.Parser.Parse_error err ->
      let err = Cnt_spice.Diag.Parse err in
      prerr_endline (Cnt_spice.Diag.error_message err);
      epilogue ~outcome:(error_outcome err) exit_usage
  | deck -> (
      Printf.printf "* title: %s\n" deck.Cnt_spice.Parser.title;
      set_netlist manifest ~path ~title:deck.Cnt_spice.Parser.title;
      match Cnt_spice.Engine.run_deck_result ~config deck with
      | Error err ->
          prerr_endline (Cnt_spice.Diag.error_message err);
          epilogue ~outcome:(error_outcome err) (Cnt_spice.Diag.exit_code err)
      | Ok tables -> finish_tables ~epilogue (render tables))

(* Ship the deck to a cntd daemon.  The accepted frame carries the
   title (printed in the same position as offline), progress frames
   re-emit through the locally installed sinks, and the result tables
   print through [render_tables] — stdout is byte-identical to an
   offline run of the same deck. *)
let run_connect ~epilogue ~manifest ~config ~render ~path ~obs ~sock text =
  match Cnt_server.Client.connect sock with
  | Error msg ->
      let err = Cnt_spice.Diag.Internal ("cannot connect: " ^ msg) in
      prerr_endline (Cnt_spice.Diag.error_message err);
      epilogue ~outcome:(error_outcome err) exit_internal
  | Ok conn -> (
      Fun.protect ~finally:(fun () -> Cnt_server.Client.close conn)
      @@ fun () ->
      let progress = obs.Cnt_cli.Cli_obs.progress <> Cnt_cli.Cli_obs.Off in
      let result =
        Cnt_server.Client.run conn ~file:path ~deck_text:text ~config ~progress
          ~on_title:(fun title ->
            Printf.printf "* title: %s\n%!" title;
            set_netlist manifest ~path ~title)
          ~on_event:Cnt_obs.Progress.emit ()
      in
      match result with
      | Error { message; exit_code; error_json; _ } ->
          prerr_endline message;
          epilogue ~outcome:(Cnt_obs.Manifest.Raw error_json) exit_code
      | Ok (tables, server) ->
          let server =
            match server with
            | Cnt_server.Json.Obj fields ->
                Cnt_server.Json.Obj
                  (("socket", Cnt_server.Json.Str sock) :: fields)
            | other -> other
          in
          Cnt_obs.Manifest.set manifest "server"
            (Cnt_obs.Manifest.Raw (Cnt_server.Json.to_string server));
          finish_tables ~epilogue (render tables))

let run connect csv_dir max_rows stats profile trace obs config path =
  if profile || trace <> None then Cnt_obs.Obs.enable ();
  Cnt_cli.Cli_obs.init obs;
  let manifest =
    Cnt_obs.Manifest.create ~tool:"cspice"
      ~argv:(List.tl (Array.to_list Sys.argv))
      ()
  in
  Cnt_obs.Manifest.set manifest "netlist"
    (Cnt_obs.Manifest.Obj [ ("path", Cnt_obs.Manifest.String path) ]);
  Cnt_obs.Manifest.set manifest "config"
    (Cnt_spice.Engine.config_manifest config);
  let epilogue = epilogue ~profile ~trace ~obs ~manifest in
  let render = render_tables ~csv_dir ~max_rows ~stats ~path ~manifest in
  match
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error msg ->
      prerr_endline msg;
      epilogue ~outcome:(error_outcome (Cnt_spice.Diag.Bad_deck msg)) exit_usage
  | text -> (
      match connect with
      | None -> run_offline ~epilogue ~manifest ~config ~render ~path text
      | Some sock ->
          run_connect ~epilogue ~manifest ~config ~render ~path ~obs ~sock text)

let connect_arg =
  let doc =
    "Run the deck on a $(b,cntd) daemon listening at $(docv) (a Unix socket \
     path or $(b,tcp:)$(i,HOST):$(i,PORT)) instead of simulating in-process.  \
     Tables return float-exactly and print through the same code path, so \
     standard output is byte-identical to an offline run.  See \
     docs/SERVER.md."
  in
  Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"SOCK" ~doc)

let csv_arg =
  let doc = "Also write each analysis result as CSV under $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let rows_arg =
  let doc = "Maximum rows to print per table." in
  Arg.(value & opt int 50 & info [ "max-rows" ] ~docv:"N" ~doc)

let stats_arg =
  let doc = "Print a solver-statistics footer after each table." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let profile_arg =
  let doc =
    "Enable telemetry and print the nested span tree, counters, histogram \
     summaries and latency distributions after the run."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let trace_arg =
  let doc =
    "Enable telemetry and write a Chrome trace-event JSON file to $(docv) \
     (loadable in chrome://tracing or ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"NETLIST" ~doc:"Netlist file.")

let cmd =
  let doc = "SPICE-like circuit simulator with ballistic CNFET devices" in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"on success.";
      Cmd.Exit.info 2
        ~doc:
          "on a netlist parse error, bad deck, usage error, or an unwritable \
           $(b,--report)/$(b,--metrics)/$(b,--trace)/$(b,--csv) path.";
      Cmd.Exit.info 3
        ~doc:
          "on a convergence failure (the strategy trail of the homotopy \
           ladder is printed to standard error).";
      Cmd.Exit.info 4 ~doc:"on an unexpected internal error.";
      Cmd.Exit.info 5
        ~doc:"when a $(b,--deadline) (or daemon-side) wall-clock budget expires.";
    ]
  in
  Cmd.v (Cmd.info "cspice" ~version:Cnt_obs.Version.version ~doc ~exits)
    Term.(
      const run $ connect_arg $ csv_arg $ rows_arg $ stats_arg $ profile_arg
      $ trace_arg $ Cnt_cli.Cli_obs.term $ Cnt_cli.Cli_config.term $ path_arg)

let () = exit (Cnt_cli.Cli_exit.eval cmd)
