(* Orchestration: run any table or figure of the paper by name, print
   it, and archive the CSV under results/. *)

type artefact = {
  name : string;
  text : string; (* human-readable rendering *)
  csv : string;
}

let experiment_ids =
  [
    "table1"; "table2"; "table3"; "table4"; "table5"; "fig2"; "fig3"; "fig4";
    "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11";
    (* beyond-the-paper ablations and studies *)
    "ablation_boundaries"; "ablation_pieces"; "ablation_weighting";
    "ablation_tail"; "variation";
  ]

let figure_artefact fig =
  {
    name = fig.Figures.id;
    text = Figures.to_ascii fig;
    csv = Figures.to_csv fig;
  }

(* Shared expensive state, built once per process on demand. *)
let central_models = lazy (Workloads.condition ~temp:300.0 ~fermi:(-0.32) ())
let experimental_result = lazy (Experimental.run ())

let run id =
  match id with
  | "table1" ->
      let r = Timing.measure (Lazy.force central_models) in
      { name = "table1"; text = Timing.to_string r; csv = Timing.to_csv r }
  | "table2" ->
      let t = Rms_tables.compute (-0.32) in
      { name = "table2"; text = Rms_tables.to_string t; csv = Rms_tables.to_csv t }
  | "table3" ->
      let t = Rms_tables.compute (-0.5) in
      { name = "table3"; text = Rms_tables.to_string t; csv = Rms_tables.to_csv t }
  | "table4" ->
      let t = Rms_tables.compute 0.0 in
      { name = "table4"; text = Rms_tables.to_string t; csv = Rms_tables.to_csv t }
  | "table5" ->
      let rows = Experimental.table () in
      {
        name = "table5";
        text = Experimental.table_to_string rows;
        csv = Experimental.table_to_csv rows;
      }
  | "fig2" -> figure_artefact (Figures.fig2 ~models:(Lazy.force central_models) ())
  | "fig3" -> figure_artefact (Figures.fig3 ~models:(Lazy.force central_models) ())
  | "fig4" -> figure_artefact (Figures.fig4 ~models:(Lazy.force central_models) ())
  | "fig5" -> figure_artefact (Figures.fig5 ~models:(Lazy.force central_models) ())
  | "fig6" -> figure_artefact (Figures.fig6 ~models:(Lazy.force central_models) ())
  | "fig7" -> figure_artefact (Figures.fig7 ~models:(Lazy.force central_models) ())
  | "fig8" -> figure_artefact (Figures.fig8 ())
  | "fig9" -> figure_artefact (Figures.fig9 ())
  | "fig10" -> figure_artefact (Figures.fig10 ~result:(Lazy.force experimental_result) ())
  | "fig11" -> figure_artefact (Figures.fig11 ~result:(Lazy.force experimental_result) ())
  | "ablation_boundaries" ->
      let rows = Ablations.boundary_ablation () in
      {
        name = "ablation_boundaries";
        text = Ablations.to_string ~title:"Boundary placement ablation" rows;
        csv = Ablations.to_csv rows;
      }
  | "ablation_pieces" ->
      let rows = Ablations.piece_count_ablation () in
      {
        name = "ablation_pieces";
        text = Ablations.to_string ~title:"Piece-count ablation (current-tuned)" rows;
        csv = Ablations.to_csv rows;
      }
  | "ablation_weighting" ->
      let rows = Ablations.weighting_ablation () in
      {
        name = "ablation_weighting";
        text = Ablations.to_string ~title:"Least-squares weighting ablation (Model 2)" rows;
        csv = Ablations.to_csv rows;
      }
  | "ablation_tail" ->
      let rows = Ablations.tail_ablation () in
      {
        name = "ablation_tail";
        text = Ablations.to_string ~title:"Final-region policy ablation at EF = 0" rows;
        csv = Ablations.to_csv rows;
      }
  | "variation" ->
      let s = Variation.run () in
      { name = "variation"; text = Variation.to_string s; csv = Variation.to_csv s }
  | other ->
      invalid_arg
        (Printf.sprintf "unknown experiment %S (known: %s)" other
           (String.concat ", " experiment_ids))

let save ?(dir = "results") artefact =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (artefact.name ^ ".csv") in
  let oc = open_out path in
  output_string oc artefact.csv;
  close_out oc;
  path

let run_all ?dir ?(ids = experiment_ids) ~print () =
  List.map
    (fun id ->
      let artefact = run id in
      if print then begin
        print_endline ("==== " ^ artefact.name ^ " ====");
        print_endline artefact.text
      end;
      let path = save ?dir artefact in
      (artefact, path))
    ids
