(* Regenerate the paper's tables and figures.

     repro all
     repro table1 fig6 fig7
     repro --list *)

open Cmdliner

let run_repro list_only quiet profile dir obs config ids =
  if profile then Cnt_obs.Obs.enable ();
  Cnt_cli.Cli_obs.init obs;
  let manifest =
    Cnt_obs.Manifest.create ~tool:"repro"
      ~argv:(List.tl (Array.to_list Sys.argv))
      ()
  in
  Cnt_obs.Manifest.set manifest "config"
    (Cnt_spice.Engine.config_manifest config);
  let finish outcome code =
    Cnt_obs.Manifest.set manifest "obs" (Cnt_obs.Manifest.obs_snapshot ());
    Cnt_obs.Manifest.set manifest "outcome" outcome;
    Cnt_cli.Cli_obs.finish obs manifest code
  in
  let ok_outcome =
    Cnt_obs.Manifest.Obj
      [
        ("status", Cnt_obs.Manifest.String "ok");
        ("exit_code", Cnt_obs.Manifest.Int 0);
      ]
  in
  if list_only then begin
    List.iter print_endline Cnt_experiments.Repro.experiment_ids;
    Cnt_obs.Manifest.set manifest "experiments"
      (Cnt_obs.Manifest.List
         (List.map
            (fun id -> Cnt_obs.Manifest.String id)
            Cnt_experiments.Repro.experiment_ids));
    finish ok_outcome 0
  end
  else begin
    let ids =
      match ids with
      | [] | [ "all" ] -> Cnt_experiments.Repro.experiment_ids
      | ids -> ids
    in
    Cnt_obs.Manifest.set manifest "experiments"
      (Cnt_obs.Manifest.List
         (List.map (fun id -> Cnt_obs.Manifest.String id) ids));
    match
      Cnt_experiments.Repro.run_all ~dir ~ids ~print:(not quiet) ()
    with
    | results ->
        List.iter
          (fun (artefact, path) ->
            Printf.printf "saved %s -> %s\n" artefact.Cnt_experiments.Repro.name path)
          results;
        Cnt_obs.Manifest.set manifest "artefacts"
          (Cnt_obs.Manifest.List
             (List.map
                (fun (a, path) ->
                  Cnt_obs.Manifest.Obj
                    [
                      ( "name",
                        Cnt_obs.Manifest.String a.Cnt_experiments.Repro.name );
                      ("path", Cnt_obs.Manifest.String path);
                    ])
                results));
        if profile then begin
          print_newline ();
          print_string (Cnt_obs.Report.render_profile ())
        end;
        finish ok_outcome 0
    | exception Invalid_argument msg ->
        prerr_endline ("error: " ^ msg);
        let err = Cnt_spice.Diag.Bad_deck msg in
        finish
          (Cnt_obs.Manifest.Raw (Cnt_spice.Diag.error_json err))
          (Cnt_spice.Diag.exit_code err)
  end

let ids_arg =
  let doc = "Experiments to run (table1..table5, fig2..fig11, or 'all')." in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let list_arg =
  let doc = "List the available experiment ids and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let quiet_arg =
  let doc = "Do not print renderings; only save CSVs." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let profile_arg =
  let doc = "Enable telemetry and print a profile report after the run." in
  Arg.(value & flag & info [ "profile" ] ~doc)

let dir_arg =
  let doc = "Directory for the CSV artefacts." in
  Arg.(value & opt string "results" & info [ "dir" ] ~docv:"DIR" ~doc)

let cmd =
  let doc = "regenerate the tables and figures of the CNT piecewise-model paper" in
  Cmd.v
    (Cmd.info "repro" ~version:Cnt_obs.Version.version ~doc
       ~exits:Cnt_cli.Cli_exit.exits)
    Term.(
      const run_repro $ list_arg $ quiet_arg $ profile_arg $ dir_arg
      $ Cnt_cli.Cli_obs.term $ Cnt_cli.Cli_config.term $ ids_arg)

let () = exit (Cnt_cli.Cli_exit.eval cmd)
