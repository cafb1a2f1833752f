(* Tables II, III and IV: average RMS drain-current error of Model 1
   and Model 2 against the reference, per gate voltage, across
   temperatures, for each Fermi level. *)

open Cnt_numerics

type cell = {
  vgs : float;
  temp : float;
  model1_error : float; (* relative RMS, fraction *)
  model2_error : float;
}

type table = {
  fermi : float;
  cells : cell list; (* ordered by vgs major, temp minor *)
}

let errors_for models ~vgs =
  let reference = Workloads.reference_curve models ~vgs in
  let e m = Stats.relative_rms_error reference (Workloads.model_curve m ~vgs) in
  (e models.Workloads.model1, e models.Workloads.model2)

(* One table (fixed Fermi level) over the temperature x V_G grid:
   condition building (FETToy reference + model fits, the expensive
   part) once per temperature, then one error cell per (V_G, T) pair,
   vgs-major, temp-minor. *)
let compute ?(tuned = true) ?(temps = Workloads.table_temps)
    ?(vgs_list = Workloads.table_vgs) fermi =
  let per_temp =
    List.map (fun temp -> (temp, Workloads.condition ~tuned ~temp ~fermi ())) temps
  in
  let cells =
    List.concat_map
      (fun vgs ->
        List.map
          (fun (temp, models) ->
            let e1, e2 = errors_for models ~vgs in
            { vgs; temp; model1_error = e1; model2_error = e2 })
          per_temp)
      vgs_list
  in
  { fermi; cells }

let cell table ~vgs ~temp =
  List.find_opt
    (fun c -> Float.abs (c.vgs -. vgs) < 1e-9 && Float.abs (c.temp -. temp) < 1e-9)
    table.cells

(* Render in the paper's layout: rows = V_G, column pairs = (Model 1,
   Model 2) per temperature. *)
let to_string table =
  let temps =
    List.sort_uniq compare (List.map (fun c -> c.temp) table.cells)
  in
  let vgs_list =
    List.sort_uniq compare (List.map (fun c -> c.vgs) table.cells)
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "Average RMS errors in IDS, EF = %g eV (percent)\n" table.fermi);
  Buffer.add_string buf (Printf.sprintf "%-8s" "VG[V]");
  List.iter
    (fun t -> Buffer.add_string buf (Printf.sprintf "%8.0fK-M1 %8.0fK-M2" t t))
    temps;
  Buffer.add_char buf '\n';
  List.iter
    (fun vgs ->
      Buffer.add_string buf (Printf.sprintf "%-8.1f" vgs);
      List.iter
        (fun temp ->
          match cell table ~vgs ~temp with
          | Some c ->
              Buffer.add_string buf
                (Printf.sprintf "%11.1f %11.1f" (100.0 *. c.model1_error)
                   (100.0 *. c.model2_error))
          | None -> Buffer.add_string buf (Printf.sprintf "%11s %11s" "-" "-"))
        temps;
      Buffer.add_char buf '\n')
    vgs_list;
  Buffer.contents buf

let to_csv table =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "fermi_ev,vgs_v,temp_k,model1_rms_pct,model2_rms_pct\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%g,%g,%g,%.4f,%.4f\n" table.fermi c.vgs c.temp
           (100.0 *. c.model1_error) (100.0 *. c.model2_error)))
    table.cells;
  Buffer.contents buf

(* Summary statistics used by EXPERIMENTS.md and the tests. *)
let worst_error table which =
  List.fold_left
    (fun acc c ->
      Float.max acc (match which with `Model1 -> c.model1_error | `Model2 -> c.model2_error))
    0.0 table.cells

let mean_error table which =
  let vals =
    List.map
      (fun c -> match which with `Model1 -> c.model1_error | `Model2 -> c.model2_error)
      table.cells
  in
  List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals)
