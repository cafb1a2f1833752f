(* Deterministic fault injection for convergence testing.

   A fault spec names one failure kind and, optionally, the ladder rung
   at which it stops firing and a sweep point it is restricted to.  Mna
   asks [fires] at the three interesting sites (linear solve, device
   eval, iteration budget); Homotopy and the analyses keep the rung /
   sweep-point context up to date.  Faults come either from the
   [CNT_FAULT] environment variable or from [with_faults] in tests.

   The spec and the context are plain globals: every analysis runs on
   its caller's domain, one solve at a time. *)

type kind = Singular_matrix | Nan_eval | Exhaust_iters

let kind_name = function
  | Singular_matrix -> "singular"
  | Nan_eval -> "nan"
  | Exhaust_iters -> "exhaust"

type spec = {
  kind : kind;
  until : Diag.rung option;
      (* fire only for rungs strictly before this one; [None] = always *)
  point : float option; (* fire only at this sweep point; [None] = everywhere *)
}

(* ------------------------------------------------------------------ *)
(* Parsing: kind[@until][#point], e.g. "exhaust@gmin#0.3"              *)
(* ------------------------------------------------------------------ *)

let kind_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "singular" -> Some Singular_matrix
  | "nan" -> Some Nan_eval
  | "exhaust" -> Some Exhaust_iters
  | _ -> None

let split_once sep s =
  match String.index_opt s sep with
  | None -> (s, None)
  | Some i ->
      ( String.sub s 0 i,
        Some (String.sub s (i + 1) (String.length s - i - 1)) )

let parse s =
  let s = String.trim s in
  let before_hash, point_str = split_once '#' s in
  let kind_str, until_str = split_once '@' before_hash in
  match kind_of_string kind_str with
  | None ->
      Error
        (Printf.sprintf
           "CNT_FAULT: unknown fault kind %S (expected singular | nan | \
            exhaust)"
           kind_str)
  | Some kind -> (
      let until =
        match until_str with
        | None -> Ok None
        | Some u -> (
            match Diag.rung_of_string u with
            | Some r -> Ok (Some r)
            | None -> Error (Printf.sprintf "CNT_FAULT: unknown rung %S" u))
      in
      match until with
      | Error e -> Error e
      | Ok until -> (
          match point_str with
          | None -> Ok { kind; until; point = None }
          | Some p -> (
              match float_of_string_opt (String.trim p) with
              | Some x -> Ok { kind; until; point = Some x }
              | None ->
                  Error (Printf.sprintf "CNT_FAULT: bad sweep point %S" p))))

let to_string sp =
  let b = Buffer.create 16 in
  Buffer.add_string b (kind_name sp.kind);
  Option.iter
    (fun r ->
      Buffer.add_char b '@';
      Buffer.add_string b (Diag.rung_name r))
    sp.until;
  Option.iter (fun p -> Buffer.add_string b (Printf.sprintf "#%g" p)) sp.point;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Installation                                                        *)
(* ------------------------------------------------------------------ *)

(* Read once at start-up: the environment is a process-wide input, so
   every solve in the process sees the same spec. *)
let env_spec =
  match Sys.getenv_opt "CNT_FAULT" with
  | None | Some "" -> None
  | Some s -> (
      match parse s with
      | Ok sp -> Some sp
      | Error msg ->
          Printf.eprintf "warning: ignoring %s\n%!" msg;
          None)

(* The spec {!with_faults} installed, overriding the environment. *)
let override : spec option ref = ref None

let current () =
  match !override with Some _ as s -> s | None -> env_spec

let with_faults sp f =
  let saved = !override in
  override := Some sp;
  Fun.protect ~finally:(fun () -> override := saved) f

(* ------------------------------------------------------------------ *)
(* Solve context                                                       *)
(* ------------------------------------------------------------------ *)

let rung = ref Diag.Plain_newton
let point : float option ref = ref None
let set_rung r = rung := r
let current_rung () = !rung
let set_point p = point := p
let current_point () = !point

let rung_index r =
  let rec go i = function
    | [] -> assert false
    | x :: tl -> if x = r then i else go (i + 1) tl
  in
  go 0 Diag.all_rungs

(* ------------------------------------------------------------------ *)
(* The decision                                                        *)
(* ------------------------------------------------------------------ *)

let fires kind =
  match current () with
  | None -> false
  | Some sp ->
      sp.kind = kind
      && (match sp.until with
         | None -> true
         | Some u -> rung_index (current_rung ()) < rung_index u)
      && (match sp.point with
         | None -> true
         | Some p -> (
             match current_point () with
             | None -> false
             | Some x -> Float.abs (x -. p) <= 1e-9 *. Float.max 1.0 (Float.abs p)))
