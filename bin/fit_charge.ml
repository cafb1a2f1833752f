(* Fit a piecewise charge approximation and report its regions,
   polynomial coefficients, continuity defects and RMS accuracy.

     fit_charge --offsets -0.28,-0.03,0.12 --degrees 1,2,3 --optimise *)

open Cmdliner
open Cnt_physics
open Cnt_core

let parse_floats s =
  String.split_on_char ',' s
  |> List.filter (fun x -> String.trim x <> "")
  |> List.map (fun x -> float_of_string (String.trim x))
  |> Array.of_list

let parse_ints s = Array.map int_of_float (parse_floats s)

let run temp fermi offsets_csv degrees_csv window optimise current_objective =
  let device = Device.create ~temp ~fermi () in
  let profile = Device.charge_profile device in
  let spec =
    Charge_fit.spec ~window ~offsets:(parse_floats offsets_csv)
      ~degrees:(parse_ints degrees_csv) ()
  in
  let spec, result =
    if current_objective then begin
      let refined, model, err = Model_tuning.optimise_for_current device spec in
      Printf.printf "current-objective mean RMS error: %.3f%%\n" (100.0 *. err);
      ( refined,
        Charge_fit.fit profile refined |> fun r ->
        ignore model;
        r )
    end
    else if optimise then begin
      let refined, result, rms = Charge_fit.optimise_boundaries profile spec in
      Printf.printf "charge-objective RMS after optimisation: %.3f%%\n" (100.0 *. rms);
      (refined, result)
    end
    else (spec, Charge_fit.fit profile spec)
  in
  Printf.printf "device: T=%g K, EF=%g eV\n" temp fermi;
  Printf.printf "boundary offsets (V relative to EF/q): %s\n"
    (String.concat ", "
       (Array.to_list (Array.map (Printf.sprintf "%+.4f") spec.Charge_fit.offsets)));
  Printf.printf "charge-curve relative RMS: %.4f%%\n"
    (100.0 *. result.Charge_fit.charge_rms);
  let approx = result.Charge_fit.approx in
  Printf.printf "continuity defects: value %.3e, slope %.3e\n"
    (Piecewise.continuity_defect ~order:0 approx)
    (Piecewise.continuity_defect ~order:1 approx);
  Format.printf "pieces:@.%a@." Piecewise.pp approx;
  0

let temp_arg =
  Arg.(value & opt float 300.0 & info [ "temp" ] ~docv:"K" ~doc:"Temperature in Kelvin.")

let fermi_arg =
  Arg.(value & opt float (-0.32) & info [ "fermi" ] ~docv:"EV" ~doc:"Fermi level in eV.")

let offsets_arg =
  Arg.(
    value
    & opt string "-0.2193,-0.0146,0.1224"
    & info [ "offsets" ] ~docv:"LIST" ~doc:"Boundary offsets from EF/q, ascending.")

let degrees_arg =
  Arg.(
    value
    & opt string "1,2,3"
    & info [ "degrees" ] ~docv:"LIST" ~doc:"Degree (1-3) of each non-zero piece.")

let window_arg =
  Arg.(
    value & opt float 0.25
    & info [ "window" ] ~docv:"V" ~doc:"Fit window below the first boundary.")

let optimise_arg =
  let doc = "Optimise the boundaries on the charge-curve RMS." in
  Arg.(value & flag & info [ "optimise" ] ~doc)

let current_arg =
  let doc = "Optimise the boundaries on the drain-current RMS (slower)." in
  Arg.(value & flag & info [ "optimise-current" ] ~doc)

let cmd =
  let doc = "fit piecewise non-linear mobile-charge approximations" in
  Cmd.v
    (Cmd.info "fit_charge" ~version:Cnt_obs.Version.version ~doc
       ~exits:Cnt_cli.Cli_exit.exits)
    Term.(
      const run $ temp_arg $ fermi_arg $ offsets_arg $ degrees_arg $ window_arg
      $ optimise_arg $ current_arg)

let () = exit (Cnt_cli.Cli_exit.eval cmd)
