(* Diff two sets of cnt-bench/1 artifacts against the regression bounds
   in BENCHMARK.json.

     compare.exe [--bounds BENCHMARK.json] --old A.json [--old ...] --new B.json [--new ...]

   Every artifact may hold several runs per workload; each side's value
   of a metric is the median over all its runs, and the run-to-run
   spread is the interquartile range of the old side over its median
   (quartiles as Python's statistics.quantiles computes them).  For each
   end-to-end metric and workload the verdict is

     regression   new median worse than old by more than the bound
     unresolved   old spread wider than the bound (unless every new run
                  beats every old run)
     improved     new median better by more than the bound
     ok           otherwise

   Count metrics are flagged "changed" when their medians differ, and
   for each workload the layer whose per-operation self time moved most
   is named.  Exits 1 when any metric regressed. *)

module Json = Cnt_server.Json

let read_json path =
  let ic = open_in_bin path in
  let text =
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  match Json.parse text with
  | Ok j -> j
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)

let field name j = Option.value ~default:Json.Null (Json.member name j)
let str name j = Option.value ~default:"" (Json.to_str (field name j))
let list name j = Option.value ~default:[] (Json.to_list (field name j))

(* Quartiles by the "exclusive" method of Python's statistics.quantiles. *)
let quartiles values =
  let d = List.sort compare values |> Array.of_list in
  let ld = Array.length d in
  let m = ld + 1 in
  List.map
    (fun i ->
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0)
    [ 1; 2; 3 ]

let median values =
  let d = List.sort compare values |> Array.of_list in
  let n = Array.length d in
  if n mod 2 = 1 then d.(n / 2) else (d.((n / 2) - 1) +. d.(n / 2)) /. 2.0

let spread values =
  if List.length values < 2 then 0.0
  else
    match quartiles values with
    | [ q1; _; q3 ] -> (q3 -. q1) /. Float.abs (median values)
    | _ -> 0.0

(* (workload, key) -> values, over every run of every artifact. *)
let collect paths section =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun path ->
      let j = read_json path in
      if str "schema" j <> "cnt-bench/1" then
        failwith (path ^ ": not a cnt-bench/1 artifact");
      List.iter
        (fun run ->
          let w = str "workload" run in
          match field section run with
          | Json.Obj members ->
              List.iter
                (fun (k, v) ->
                  let v = match Json.member "value" v with Some x -> x | None -> v in
                  match Json.to_float v with
                  | Some f ->
                      let key = (w, k) in
                      Hashtbl.replace tbl key
                        (f :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
                  | None -> ())
                members
          | _ -> ())
        (list "runs" j))
    paths;
  tbl

let () =
  let bounds = ref "BENCHMARK.json" and olds = ref [] and news = ref [] in
  Arg.parse
    [
      ("--bounds", Arg.Set_string bounds, "FILE metric catalogue (default BENCHMARK.json)");
      ("--old", Arg.String (fun p -> olds := p :: !olds), "FILE baseline artifact (repeatable)");
      ("--new", Arg.String (fun p -> news := p :: !news), "FILE candidate artifact (repeatable)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "compare.exe [--bounds BENCHMARK.json] --old A.json ... --new B.json ...";
  if !olds = [] || !news = [] then begin
    prerr_endline "compare: need at least one --old and one --new artifact";
    exit 2
  end;
  let catalogue = read_json !bounds in
  let old_m = collect !olds "metrics" and new_m = collect !news "metrics" in
  let old_l = collect !olds "layers_s" and new_l = collect !news "layers_s" in
  let workloads =
    List.map (str "name") (list "workloads" catalogue)
  in
  let regressions = ref 0 in
  List.iter
    (fun w ->
      Printf.printf "== %s\n" w;
      List.iter
        (fun m ->
          let name = str "name" m and better = str "better" m in
          let bound = Option.value ~default:0.0 (Json.to_float (field "bound" m)) in
          match (Hashtbl.find_opt old_m (w, name), Hashtbl.find_opt new_m (w, name)) with
          | Some o, Some n ->
              let mo = median o and mn = median n in
              let worse a b = if better = "lower" then a > b else a < b in
              (* positive = worse, as a share of the old median *)
              let change =
                (if better = "lower" then mn -. mo else mo -. mn) /. Float.abs mo
              in
              let s = spread o in
              let all_better = List.for_all (fun x -> List.for_all (fun y -> worse y x) o) n in
              let verdict =
                if s > bound && not all_better then "unresolved"
                else if change > bound then (incr regressions; "REGRESSION")
                else if change < -.bound then "improved"
                else "ok"
              in
              Printf.printf "  %-22s old %-12.6g new %-12.6g %+7.2f%%  spread %5.2f%%  bound %4.1f%%  %s\n"
                name mo mn (100.0 *. change) (100.0 *. s) (100.0 *. bound) verdict
          | _ -> ())
        (list "end_to_end" catalogue);
      List.iter
        (fun m ->
          let name = str "name" m in
          if str "unit" m = "count" then
            match (Hashtbl.find_opt old_m (w, name), Hashtbl.find_opt new_m (w, name)) with
            | Some o, Some n when median o <> median n ->
                Printf.printf "  %-22s old %-12.6g new %-12.6g changed\n" name (median o) (median n)
            | _ -> ())
        (list "per_layer" catalogue);
      let moved =
        Hashtbl.fold
          (fun (w', layer) o acc ->
            if w' <> w then acc
            else
              match Hashtbl.find_opt new_l (w, layer) with
              | None -> acc
              | Some n ->
                  let d = median n -. median o in
                  (match acc with
                  | Some (_, best, _) when Float.abs best >= Float.abs d -> acc
                  | _ when d = 0.0 -> acc
                  | _ -> Some (layer, d, median o)))
          old_l None
      in
      match moved with
      | Some (layer, d, o) ->
          Printf.printf "  layer that moved most: %s (%+.3g s per op, old %.3g s)\n" layer d o
      | None -> ())
    workloads;
  if !regressions > 0 then exit 1
