(* Print CNFET I-V characteristics for any of the models.

     cnt_char --model model2 --temp 300 --fermi -0.32 \
              --vgs 0.3,0.4,0.5,0.6 --vds-max 0.6 --points 61 --format csv *)

open Cmdliner
open Cnt_physics
open Cnt_core
open Cnt_numerics

type which =
  | Reference
  | Model1
  | Model2
  | Table

let eval_model which device ~optimise =
  match which with
  | Reference ->
      let ft = Fettoy.create device in
      fun ~vgs ~vds -> Fettoy.ids ft ~vgs ~vds
  | Model1 ->
      let m = Cnt_model.make ~spec:Charge_fit.model1_spec ~optimise device in
      fun ~vgs ~vds -> Cnt_model.ids m ~vgs ~vds
  | Model2 ->
      let m = Cnt_model.make ~spec:Charge_fit.model2_spec ~optimise device in
      fun ~vgs ~vds -> Cnt_model.ids m ~vgs ~vds
  | Table ->
      let m = Table_model.make device in
      fun ~vgs ~vds -> Table_model.ids m ~vgs ~vds

let run which temp fermi diameter tox vgs_csv vds_max points format optimise
    compare profile obs config =
  if profile then Cnt_obs.Obs.enable ();
  Cnt_cli.Cli_obs.init obs;
  let manifest =
    Cnt_obs.Manifest.create ~tool:"cnt_char"
      ~argv:(List.tl (Array.to_list Sys.argv))
      ()
  in
  Cnt_obs.Manifest.set manifest "config"
    (Cnt_spice.Engine.config_manifest config);
  let device =
    Device.create ~temp ~fermi ~diameter:(diameter *. 1e-9)
      ~oxide_thickness:(tox *. 1e-9) ()
  in
  let vgs_list =
    String.split_on_char ',' vgs_csv
    |> List.filter (fun s -> String.trim s <> "")
    |> List.map (fun s -> float_of_string (String.trim s))
  in
  Cnt_obs.Manifest.set manifest "device"
    (Cnt_obs.Manifest.Obj
       [
         ("temp_k", Cnt_obs.Manifest.Float temp);
         ("fermi_ev", Cnt_obs.Manifest.Float fermi);
         ("diameter_nm", Cnt_obs.Manifest.Float diameter);
         ("tox_nm", Cnt_obs.Manifest.Float tox);
         ("vds_max", Cnt_obs.Manifest.Float vds_max);
         ("points", Cnt_obs.Manifest.Int points);
         ("curves", Cnt_obs.Manifest.Int (List.length vgs_list));
       ]);
  let vds_points = Grid.linspace 0.0 vds_max points in
  let ids = eval_model which device ~optimise in
  let n_curves = List.length vgs_list in
  let label = Printf.sprintf "char %d curves x %d points" n_curves points in
  if Cnt_obs.Progress.on () then
    Cnt_obs.Progress.emit
      (Cnt_obs.Progress.Analysis_start { analysis = "char"; label });
  let curves =
    List.mapi
      (fun k vgs ->
        let curve = Array.map (fun vds -> ids ~vgs ~vds) vds_points in
        if Cnt_obs.Progress.on () then
          Cnt_obs.Progress.emit
            (Cnt_obs.Progress.Sample { label = "char"; i = k + 1; n = n_curves });
        (vgs, curve))
      vgs_list
  in
  if Cnt_obs.Progress.on () then
    Cnt_obs.Progress.emit
      (Cnt_obs.Progress.Analysis_finish
         { analysis = "char"; label; points = n_curves });
  Cnt_obs.Manifest.set manifest "digest_md5"
    (Cnt_obs.Manifest.String
       (Cnt_obs.Manifest.digest_rows
          (Array.of_list (List.map snd curves))));
  if compare then begin
    (* per-gate-voltage relative RMS against the full reference *)
    let reference = Fettoy.create device in
    Printf.printf "# RMS error vs reference (FETToy-equivalent):\n";
    List.iter
      (fun (vgs, curve) ->
        let ref_curve = Array.map (fun vds -> Fettoy.ids reference ~vgs ~vds) vds_points in
        Printf.printf "#   VG=%.2f V: %.2f%%\n" vgs
          (100.0 *. Stats.relative_rms_error ref_curve curve))
      curves
  end;
  (match format with
  | "csv" ->
      Printf.printf "vds_v%s\n"
        (String.concat ""
           (List.map (fun (vgs, _) -> Printf.sprintf ",ids_vg%.2f_a" vgs) curves));
      Array.iteri
        (fun i vds ->
          Printf.printf "%.6g%s\n" vds
            (String.concat ""
               (List.map (fun (_, c) -> Printf.sprintf ",%.6g" c.(i)) curves)))
        vds_points
  | "ascii" ->
      let markers = Cnt_experiments.Ascii_plot.default_markers in
      let ss =
        List.mapi
          (fun i (vgs, c) ->
            Cnt_experiments.Ascii_plot.series
              ~marker:markers.(i mod Array.length markers)
              ~label:(Printf.sprintf "VG=%.2f V" vgs)
              vds_points c)
          curves
      in
      Cnt_experiments.Ascii_plot.print ~title:"IDS vs VDS" ss
  | other -> failwith (Printf.sprintf "unknown format %S (csv|ascii)" other));
  if profile then begin
    print_newline ();
    print_string (Cnt_obs.Report.render_profile ())
  end;
  Cnt_obs.Manifest.set manifest "obs" (Cnt_obs.Manifest.obs_snapshot ());
  Cnt_obs.Manifest.set manifest "outcome"
    (Cnt_obs.Manifest.Obj
       [
         ("status", Cnt_obs.Manifest.String "ok");
         ("exit_code", Cnt_obs.Manifest.Int 0);
       ]);
  Cnt_cli.Cli_obs.finish obs manifest 0

let which_arg =
  let alts =
    [ ("fettoy", Reference); ("reference", Reference); ("model1", Model1);
      ("model2", Model2); ("table", Table) ]
  in
  let doc = "Model to evaluate: fettoy|model1|model2|table." in
  Arg.(value & opt (enum alts) Model2 & info [ "model" ] ~docv:"MODEL" ~doc)

let temp_arg =
  Arg.(value & opt float 300.0 & info [ "temp" ] ~docv:"K" ~doc:"Temperature in Kelvin.")

let fermi_arg =
  Arg.(value & opt float (-0.32) & info [ "fermi" ] ~docv:"EV" ~doc:"Source Fermi level in eV.")

let diameter_arg =
  Arg.(value & opt float 1.0 & info [ "diameter" ] ~docv:"NM" ~doc:"Tube diameter in nm.")

let tox_arg =
  Arg.(value & opt float 1.5 & info [ "tox" ] ~docv:"NM" ~doc:"Oxide thickness in nm.")

let vgs_arg =
  Arg.(
    value
    & opt string "0.3,0.4,0.5,0.6"
    & info [ "vgs" ] ~docv:"LIST" ~doc:"Comma-separated gate voltages.")

let vds_max_arg =
  Arg.(value & opt float 0.6 & info [ "vds-max" ] ~docv:"V" ~doc:"Drain sweep end.")

let points_arg =
  Arg.(value & opt int 61 & info [ "points" ] ~docv:"N" ~doc:"Drain sweep points.")

let format_arg =
  Arg.(value & opt string "csv" & info [ "format" ] ~docv:"FMT" ~doc:"Output: csv or ascii.")

let optimise_arg =
  let doc = "Re-optimise the piecewise boundaries for this condition." in
  Arg.(value & flag & info [ "optimise" ] ~doc)

let compare_arg =
  let doc = "Also print the RMS error of each curve against the reference model." in
  Arg.(value & flag & info [ "compare" ] ~doc)

let profile_arg =
  let doc = "Enable telemetry and print a profile report after the run." in
  Arg.(value & flag & info [ "profile" ] ~doc)

let cmd =
  let doc = "print ballistic CNFET output characteristics" in
  Cmd.v
    (Cmd.info "cnt_char" ~version:Cnt_obs.Version.version ~doc
       ~exits:Cnt_cli.Cli_exit.exits)
    Term.(
      const run $ which_arg $ temp_arg $ fermi_arg $ diameter_arg $ tox_arg
      $ vgs_arg $ vds_max_arg $ points_arg $ format_arg $ optimise_arg
      $ compare_arg $ profile_arg $ Cnt_cli.Cli_obs.term
      $ Cnt_cli.Cli_config.term_no_model)

let () = exit (Cnt_cli.Cli_exit.eval cmd)
