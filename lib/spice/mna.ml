(* Modified nodal analysis, split into a symbolic compilation and a
   numeric refill.

   [compile] resolves the netlist once: node names become indices,
   elements become a typed device array, and a symbolic stamping pass
   records the Jacobian sparsity pattern — the exact sequence of matrix
   locations the stamps touch — whose CSR build returns the slot
   [program]: each location's value slot, in stamp order.
   The backing matrix lives in a {!Linear_solver.t} (sparse CSR under
   a minimum-degree ordering), allocated once.

   Each Newton iteration then performs a numeric refill: gather every
   CNFET's bias point into the device table, evaluate the table through
   one range-kernel call per run of same-backend rows, then scatter:
   clear the matrix values, walk the devices once more adding each
   stamp value straight into the solver's CSR value array at the
   program's next slot (a cursor walk over an [int array]: no hashing,
   no closure, no index arithmetic), and overwrite the right-hand side.
   The gather bypasses a row whose bias has not moved by more than the
   Newton update tolerance since the row's last evaluation: the row
   keeps that evaluation, and the scatter stamps the linearisation at
   the bias where it was taken (see [docs/ASSEMBLY.md], "Bypass").

   A refill allocates nothing per device.  Floats stay unboxed because
   the hot helpers are top-level [@inline] functions of this module and
   the device kernels exchange values only through the table's Bigarray
   columns: the default (dev) build compiles every module with
   [-opaque], so a call into another module is never inlined and each
   float argument or result of one would be a heap block.

   Unknown vector layout: node voltages first (one per non-ground
   node), then one branch current per voltage source or inductor.
   Equations: KCL rows (currents leaving the node sum to the injected
   current), then one branch equation per source/inductor. *)

open Cnt_numerics
module Obs = Cnt_obs.Obs

exception No_convergence of Diag.newton_report

(* Registry instruments, interned once.  Every recording call below is
   a single-branch no-op while telemetry is disabled. *)
let c_newton_iters = Obs.counter "mna.newton_iterations"
let c_linear_solves = Obs.counter "mna.linear_solves"
let c_device_evals = Obs.counter "mna.device_evals"
let c_device_bypassed = Obs.counter "mna.device_bypassed"
let c_damped_backtracks = Obs.counter "mna.damped_backtracks"
let h_residual = Obs.histogram "mna.newton_residual"
let h_iters = Obs.histogram "mna.newton_iters_per_solve"

(* Symbolic factorisation fill of the compiled pattern, accumulated at
   compile time (the numerics layer has no telemetry dependency, so the
   counter ticks here from the solver's bookkeeping). *)
let c_fill_applied = Obs.counter "ordering.fill_applied"

(* ------------------------------------------------------------------ *)
(* Solver statistics                                                   *)
(* ------------------------------------------------------------------ *)

type stats = {
  backend : string;
  unknowns : int;
  nonzeros : int;
  mutable newton_iterations : int;
  mutable linear_solves : int;
  mutable device_evals : int;
  mutable device_bypassed : int;
  mutable assemble_s : float;
  mutable solve_s : float;
  mutable residual : float;
}

let fresh_stats ~backend ~unknowns ~nonzeros =
  {
    backend;
    unknowns;
    nonzeros;
    newton_iterations = 0;
    linear_solves = 0;
    device_evals = 0;
    device_bypassed = 0;
    assemble_s = 0.0;
    solve_s = 0.0;
    residual = 0.0;
  }

(* Fold the mutable counters of [src] into [into]; structural fields
   are left alone.  Used to make an AC report include the DC solve it
   linearised around. *)
let add_stats ~into src =
  into.newton_iterations <- into.newton_iterations + src.newton_iterations;
  into.linear_solves <- into.linear_solves + src.linear_solves;
  into.device_evals <- into.device_evals + src.device_evals;
  into.device_bypassed <- into.device_bypassed + src.device_bypassed;
  into.assemble_s <- into.assemble_s +. src.assemble_s;
  into.solve_s <- into.solve_s +. src.solve_s;
  into.residual <- Float.max into.residual src.residual

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>solver   : %s backend, %d unknowns, %d stored entries@,\
     newton   : %d iterations, %d linear solves, %d device evals (%d \
     bypassed)@,\
     time     : %.3g s assemble, %.3g s factor+solve@,\
     residual : %.3g (inf-norm, last linearisation)@]"
    s.backend s.unknowns s.nonzeros s.newton_iterations s.linear_solves
    s.device_evals s.device_bypassed s.assemble_s s.solve_s s.residual

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Companion models                                                    *)
(* ------------------------------------------------------------------ *)

(* Companion stamps for capacitors during transient analysis: the cap
   between nodes (a, b) behaves as conductance [geq] in parallel with a
   current source [ieq] flowing a -> b internally. *)
type cap_companion = {
  geq : float;
  ieq : float;
}

type cap_policy =
  | Open_circuit (* DC: capacitors carry no current *)
  | Companions of cap_companion array (* one per capacitor, netlist order *)

(* Inductor branch equation during transient analysis:
   v+ - v- - zeq * i = veq.  At DC an inductor is a short
   (zeq = veq = 0). *)
type ind_companion = {
  zeq : float;
  veq : float;
}

type ind_policy =
  | Short_circuit (* DC: inductors are shorts *)
  | Ind_companions of ind_companion array (* one per inductor, netlist order *)

(* ------------------------------------------------------------------ *)
(* Compiled circuits                                                   *)
(* ------------------------------------------------------------------ *)

(* Netlist elements with node names resolved to unknown indices
   (-1 = ground).  [ci]/[li] index the companion arrays supplied per
   Newton call; CNFET intrinsic capacitances claim companion slots just
   like explicit capacitors ([cgs_i] = -1 when the device has none). *)
type device =
  | Dresistor of { a : int; b : int; g : float }
  | Dcapacitor of { a : int; b : int; ci : int }
  | Dinductor of { a : int; b : int; row : int; li : int }
  | Dvsource of { p : int; m : int; row : int; name : string; wave : Waveform.t }
  | Disource of { p : int; m : int; name : string; wave : Waveform.t }
  | Dcnfet of {
      d : int;
      g : int;
      s : int;
      model : Cnt_core.Device_model.t;
      cgs_i : int;
      cgd_i : int;
      ti : int; (* row in the CNFET device table, netlist order *)
    }

(* Structure-of-arrays lowering of the circuit's CNFETs: node indices
   and models in parallel arrays, bias and output slots in contiguous
   Bigarray float64 columns.  Row [ti] of every column belongs to the
   device carrying that [ti].  The node/model columns are immutable and
   shared between clones (see the compile cache); the float columns and
   the skip flags are per-workspace state, rewritten row by row as the
   rows are evaluated. *)
type cnfet_table = {
  ct_n : int;
  ct_d : int array; (* drain node index, -1 = ground *)
  ct_g : int array;
  ct_s : int array;
  ct_models : Cnt_core.Device_model.t array;
  (* the bias of each row's last evaluation; NaN until the first *)
  ct_vgs : Cnt_core.Device_model.vec;
  ct_vds : Cnt_core.Device_model.vec;
  ct_i0 : Cnt_core.Device_model.vec; (* that evaluation's outputs *)
  ct_gm : Cnt_core.Device_model.vec;
  ct_gds : Cnt_core.Device_model.vec;
  (* per refill: '\001' where the gather bypassed the row *)
  ct_skip : Bytes.t;
  (* the rows' range kernels and their scratch (solver plans); never
     shared between clones *)
  ct_kernel : Cnt_core.Device_model.kernel;
}

let fvec n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

(* A bias column that no bias is within any bound of, so that the first
   refill of a workspace evaluates every row. *)
let unevaluated n =
  let v = fvec n in
  Bigarray.Array1.fill v Float.nan;
  v

(* The table over immutable node and model columns, with a fresh
   numeric workspace: compile builds one, and every clone its own. *)
let cnfet_table ~d ~g ~s ~models =
  let n = Array.length models in
  {
    ct_n = n;
    ct_d = d;
    ct_g = g;
    ct_s = s;
    ct_models = models;
    ct_vgs = unevaluated n;
    ct_vds = unevaluated n;
    ct_i0 = fvec n;
    ct_gm = fvec n;
    ct_gds = fvec n;
    ct_skip = Bytes.make n '\000';
    ct_kernel = Cnt_core.Device_model.kernel models;
  }

type compiled = {
  circuit : Circuit.t;
  names : string array; (* node names by index *)
  n_nodes : int;
  branch_of_vsource : int Circuit.Names.t; (* name -> row offset *)
  n_branches : int;
  devices : device array;
  zero_caps : cap_companion array; (* Open_circuit as all-zero companions *)
  zero_inds : ind_companion array; (* Short_circuit likewise *)
  solver : Linear_solver.t;
  program : int array; (* solver slots in stamp emission order *)
  rhs : float array; (* refilled in place each iteration *)
  stats : stats;
  table : cnfet_table option; (* Some iff the circuit has CNFETs *)
}

let size c = c.n_nodes + c.n_branches

let circuit c = c.circuit
let node_count c = c.n_nodes
let stats c = c.stats

(* Node index, or -1 for ground. *)
let node_id c name =
  match Circuit.node_index c.circuit name with
  | i -> i
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Mna.node_id: unknown node %s" name)

(* Human name of any unknown index: node name for voltage rows, the
   source/inductor current for branch rows.  Diagnostics only. *)
let unknown_name c i =
  if i >= 0 && i < c.n_nodes then c.names.(i)
  else begin
    let off = i - c.n_nodes in
    let name = ref (Printf.sprintf "branch#%d" off) in
    Circuit.Names.iter
      (fun k v -> if v = off then name := Printf.sprintf "i(%s)" k)
      c.branch_of_vsource;
    !name
  end

let branch_id c vname =
  match Circuit.Names.find_opt c.branch_of_vsource (Circuit.lowercase vname) with
  | Some i -> c.n_nodes + i
  | None -> invalid_arg (Printf.sprintf "Mna.branch_id: unknown source %s" vname)

(* Voltage of a node in a solution vector. *)
let voltage c x name =
  let i = node_id c name in
  if i < 0 then 0.0 else x.(i)

(* Current through a voltage source in a solution vector (SPICE sign:
   positive flows into the + terminal and through the source). *)
let vsource_current c x vname = x.(branch_id c vname)

(* Inductors in netlist order as (n1, n2, branch_index, henries). *)
let inductors c =
  List.filter_map
    (function
      | Circuit.Inductor { name; n1; n2; henries } ->
          Some (node_id c n1, node_id c n2, branch_id c name, henries)
      | _ -> None)
    (Circuit.elements c.circuit)
  |> Array.of_list

(* Capacitances in netlist order with compiled node ids: explicit
   capacitor elements, plus the intrinsic gate-source and gate-drain
   capacitances of CNFETs with a positive tube length. *)
let capacitors c =
  List.concat_map
    (function
      | Circuit.Capacitor { n1; n2; farads; _ } ->
          [ (node_id c n1, node_id c n2, farads) ]
      | Circuit.Cnfet { drain; gate; source; params; _ } -> begin
          match Circuit.cnfet_intrinsic_caps params with
          | None -> []
          | Some (cgs, cgd) ->
              [
                (node_id c gate, node_id c source, cgs);
                (node_id c gate, node_id c drain, cgd);
              ]
        end
      | _ -> [])
    (Circuit.elements c.circuit)
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Stamping                                                            *)
(* ------------------------------------------------------------------ *)

(* The symbolic stamping pass: every (row, col) location a refill adds
   into, in emission order, with ground rows and columns skipped, as a
   rows array and a columns array.  The sequence is value-independent:
   capacitors and inductors are always stamped (with zero companions
   at DC).  [scatter] below emits its values in exactly this sequence,
   one per recorded location, so any structural change must keep the
   two in step; a refill whose cursor does not end on the program's
   last slot is rejected. *)
let stamp_pattern ~devices ~n_nodes =
  (* two walks over the same stamp sequence: the first counts, the
     second fills arrays of exactly that size *)
  let walk add_j =
    let add_j i j = if i >= 0 && j >= 0 then add_j i j in
    let conductance a b =
      add_j a a;
      add_j b b;
      add_j a b;
      add_j b a
    in
    for i = 0 to n_nodes - 1 do
      add_j i i
    done;
    Array.iter
      (function
        | Dresistor { a; b; _ } | Dcapacitor { a; b; _ } -> conductance a b
        | Dinductor { a; b; row; _ } ->
            add_j a row;
            add_j b row;
            add_j row a;
            add_j row b;
            add_j row row
        | Dvsource { p; m; row; _ } ->
            add_j p row;
            add_j m row;
            add_j row p;
            add_j row m
        | Disource _ -> ()
        | Dcnfet { d; g; s; cgs_i; _ } ->
            add_j d g;
            add_j d s;
            add_j s g;
            add_j s s;
            conductance d s;
            if cgs_i >= 0 then begin
              conductance g s;
              conductance g d
            end)
      devices
  in
  let count = ref 0 in
  walk (fun _ _ -> incr count);
  let rows = Array.make !count 0 and cols = Array.make !count 0 in
  let k = ref 0 in
  walk (fun i j ->
      rows.(!k) <- i;
      cols.(!k) <- j;
      incr k);
  (rows, cols)

(* ------------------------------------------------------------------ *)
(* Compilation: symbolic pass                                          *)
(* ------------------------------------------------------------------ *)

let compile_uncached circuit =
  Obs.span "mna.compile" @@ fun () ->
  let names = Circuit.nodes circuit in
  let n_nodes = List.length names in
  let branch_of_vsource = Circuit.Names.create 4 in
  let n_branches = ref 0 in
  (* voltage sources and inductors each carry a branch-current unknown,
     allocated in element order *)
  List.iter
    (fun e ->
      match e with
      | Circuit.Vsource { name; _ } | Circuit.Inductor { name; _ } ->
          Circuit.Names.add branch_of_vsource (Circuit.lowercase name) !n_branches;
          incr n_branches
      | _ -> ())
    (Circuit.elements circuit);
  (* each element's node indices, in [Circuit.terminals] order *)
  let terminals = Circuit.terminals circuit and t = ref 0 in
  let next_node () =
    let i = terminals.(!t) in
    incr t;
    i
  in
  (* resolve elements into the device array; allocate companion slots *)
  let n_caps = ref 0 and n_inds = ref 0 and branch = ref n_nodes in
  let n_cnfets = ref 0 in
  let devices =
    List.filter_map
      (fun e ->
        let a = next_node () in
        let b = next_node () in
        match e with
        | Circuit.Resistor { ohms; _ } ->
            Some (Dresistor { a; b; g = 1.0 /. ohms })
        | Circuit.Capacitor _ ->
            let ci = !n_caps in
            incr n_caps;
            Some (Dcapacitor { a; b; ci })
        | Circuit.Inductor _ ->
            let row = !branch and li = !n_inds in
            incr branch;
            incr n_inds;
            Some (Dinductor { a; b; row; li })
        | Circuit.Vsource { name; wave; _ } ->
            let row = !branch in
            incr branch;
            Some (Dvsource { p = a; m = b; row; name; wave })
        | Circuit.Isource { name; wave; _ } ->
            Some (Disource { p = a; m = b; name; wave })
        | Circuit.Cnfet { params; _ } ->
            let d = a and g = b and s = next_node () in
            let cgs_i, cgd_i =
              match Circuit.cnfet_intrinsic_caps params with
              | None -> (-1, -1)
              | Some _ ->
                  let i = !n_caps in
                  n_caps := !n_caps + 2;
                  (i, i + 1)
            in
            let ti = !n_cnfets in
            incr n_cnfets;
            Some
              (Dcnfet
                 {
                   d;
                   g;
                   s;
                   model = params.Circuit.model;
                   cgs_i;
                   cgd_i;
                   ti;
                 }))
      (Circuit.elements circuit)
    |> Array.of_list
  in
  let n = n_nodes + !n_branches in
  let zero_caps = Array.make !n_caps { geq = 0.0; ieq = 0.0 } in
  let zero_inds = Array.make !n_inds { zeq = 0.0; veq = 0.0 } in
  let rows, cols = stamp_pattern ~devices ~n_nodes in
  (* the CSR build hands back each stamp location's slot: the program *)
  let solver, program = Linear_solver.create n rows cols in
  Obs.incr ~by:(Linear_solver.fill solver) c_fill_applied;
  (* lower the CNFETs into the structure-of-arrays table the refill's
     gather, batch-eval and scatter passes work on *)
  let table =
    if !n_cnfets = 0 then None
    else begin
      let nt = !n_cnfets in
      let ct_d = Array.make nt (-1)
      and ct_g = Array.make nt (-1)
      and ct_s = Array.make nt (-1) in
      let slots = Array.make nt None in
      Array.iter
        (function
          | Dcnfet { d; g; s; model; ti; _ } ->
              ct_d.(ti) <- d;
              ct_g.(ti) <- g;
              ct_s.(ti) <- s;
              slots.(ti) <- Some model
          | _ -> ())
        devices;
      let models =
        Array.map (function Some m -> m | None -> assert false) slots
      in
      Some (cnfet_table ~d:ct_d ~g:ct_g ~s:ct_s ~models)
    end
  in
  {
    circuit;
    names = Array.of_list names;
    n_nodes;
    branch_of_vsource;
    n_branches = !n_branches;
    devices;
    zero_caps;
    zero_inds;
    solver;
    program;
    rhs = Array.make n 0.0;
    stats =
      fresh_stats ~backend:"sparse" ~unknowns:n
        ~nonzeros:(Linear_solver.nnz solver);
    table;
  }

(* A second numeric workspace over the same symbolic compilation, for
   the compile cache: the netlist, node tables, device array, solver
   permutation and pattern, and so the slot program, are shared
   (immutable after compile); the solver values and LU workspace, rhs,
   stats and device-table workspace are fresh, so each request's run
   starts from zeroed stats, evaluates every CNFET on its first refill,
   and leaves the cached template untouched. *)
let clone c =
  let n = size c in
  {
    c with
    solver = Linear_solver.clone c.solver;
    rhs = Array.make n 0.0;
    stats =
      fresh_stats ~backend:c.stats.backend ~unknowns:n
        ~nonzeros:c.stats.nonzeros;
    table =
      Option.map
        (fun tb ->
          cnfet_table ~d:tb.ct_d ~g:tb.ct_g ~s:tb.ct_s ~models:tb.ct_models)
        c.table;
  }

(* ------------------------------------------------------------------ *)
(* Compile cache: cross-run symbolic-pattern sharing                   *)
(* ------------------------------------------------------------------ *)

(* Opt-in process-global memo over [compile_uncached], keyed by the
   circuit value's physical identity.  A hit returns a {!clone} of the
   cached template — the symbolic pattern, node tables and device array
   are shared, the numeric workspace is fresh — and a miss compiles,
   stores the pristine template, and returns a clone of it too, so the
   template itself never runs Newton and stays safe to clone from any
   future request.

   Physical keying is deliberate: value-equality over a netlist is
   expensive, and impossible over device models, which are records of
   closures that structural equality raises on.  The daemon's
   deck cache keeps one canonical [Parser.deck] per deck-content hash
   alive, so repeated requests for the same deck text present the same
   circuit value and hit here.  One-shot CLI runs never enable this.

   Counters (under telemetry): [mna.compile_cache.hits] /
   [mna.compile_cache.misses].  Entries evict FIFO beyond [max]. *)

let c_compile_cache_hits = Obs.counter "mna.compile_cache.hits"
let c_compile_cache_misses = Obs.counter "mna.compile_cache.misses"

type compile_cache_entry = {
  cc_circuit : Circuit.t;
  cc_template : compiled;
}

let compile_cache : compile_cache_entry list ref = ref []
let compile_cache_max = ref 0 (* 0 = disabled *)
let compile_cache_mutex = Mutex.create ()
let compile_cache_hits = ref 0
let compile_cache_misses = ref 0

let enable_compile_cache ?(max_entries = 64) () =
  if max_entries < 1 then
    invalid_arg "Mna.enable_compile_cache: max_entries must be >= 1";
  Mutex.lock compile_cache_mutex;
  compile_cache_max := max_entries;
  Mutex.unlock compile_cache_mutex

let compile_cache_stats () = (!compile_cache_hits, !compile_cache_misses)

let compile circuit =
  if !compile_cache_max = 0 then compile_uncached circuit
  else begin
    Mutex.lock compile_cache_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock compile_cache_mutex)
      (fun () ->
        match
          List.find_opt (fun e -> e.cc_circuit == circuit) !compile_cache
        with
        | Some e ->
            incr compile_cache_hits;
            Obs.incr c_compile_cache_hits;
            clone e.cc_template
        | None ->
            incr compile_cache_misses;
            Obs.incr c_compile_cache_misses;
            let template = compile_uncached circuit in
            let entry = { cc_circuit = circuit; cc_template = template } in
            let kept =
              (* FIFO: keep the most recent max-1 entries plus the new one *)
              List.filteri (fun i _ -> i < !compile_cache_max - 1) !compile_cache
            in
            compile_cache := entry :: kept;
            clone template)
  end

(* ------------------------------------------------------------------ *)
(* Numeric refill and the Newton loop                                  *)
(* ------------------------------------------------------------------ *)

(* The scatter's stamp helpers.  Each Jacobian stamp adds [v] at the
   program's next slot unless its row or column is ground (the symbolic
   pass recorded no slot there) and returns the advanced cursor.  They
   are top-level and inlined, so no stamp value is ever boxed. *)
let[@inline] stamp vals program cur i j v =
  if i >= 0 && j >= 0 then begin
    let s = program.(cur) in
    vals.(s) <- vals.(s) +. v;
    cur + 1
  end
  else cur

let[@inline] stamp_conductance vals program cur a b g =
  let cur = stamp vals program cur a a g in
  let cur = stamp vals program cur b b g in
  let cur = stamp vals program cur a b (-.g) in
  stamp vals program cur b a (-.g)

let[@inline] add_rhs rhs i v = if i >= 0 then rhs.(i) <- rhs.(i) +. v

(* current [i0] flowing a -> b inside a device *)
let[@inline] stamp_current rhs a b i0 =
  add_rhs rhs a (-.i0);
  add_rhs rhs b i0

let[@inline] stamp_cap_companion vals program rhs cur a b (cc : cap_companion) =
  let cur = stamp_conductance vals program cur a b cc.geq in
  stamp_current rhs a b cc.ieq;
  cur

let[@inline] volt x i = if i < 0 then 0.0 else x.(i)

(* Overwrite the matrix values and rhs: every device's stamps in the
   symbolic pass's order, each added straight into the solver's CSR
   value array at the next program slot.  A CNFET stamps row [ti] of
   the table: the linearisation (I_0, g_m, g_ds) taken at the row's
   stored bias.  For a row evaluated in this refill that is the bias
   the gather just computed from the solution vector; for a bypassed
   row it is the bias of its last evaluation, so its current moves
   along that evaluation's tangent. *)
let scatter c ~eval_wave ~caps ~inds ~gmin =
  let vals = Linear_solver.values c.solver
  and program = c.program
  and rhs = c.rhs in
  Linear_solver.clear c.solver;
  Array.fill rhs 0 (Array.length rhs) 0.0;
  let cur = ref 0 in
  for i = 0 to c.n_nodes - 1 do
    cur := stamp vals program !cur i i gmin
  done;
  for k = 0 to Array.length c.devices - 1 do
    match c.devices.(k) with
    | Dresistor { a; b; g } -> cur := stamp_conductance vals program !cur a b g
    | Dcapacitor { a; b; ci } ->
        cur := stamp_cap_companion vals program rhs !cur a b caps.(ci)
    | Dinductor { a; b; row; li } ->
        let ic = inds.(li) in
        (* branch current leaves n1 into the inductor *)
        let k = stamp vals program !cur a row 1.0 in
        let k = stamp vals program k b row (-1.0) in
        (* branch equation: v1 - v2 - zeq*i = veq *)
        let k = stamp vals program k row a 1.0 in
        let k = stamp vals program k row b (-1.0) in
        cur := stamp vals program k row row (-.ic.zeq);
        add_rhs rhs row ic.veq
    | Dvsource { p; m; row; name; wave } ->
        (* branch current leaves the + node into the source *)
        let k = stamp vals program !cur p row 1.0 in
        let k = stamp vals program k m row (-1.0) in
        (* branch equation: v+ - v- = E *)
        let k = stamp vals program k row p 1.0 in
        cur := stamp vals program k row m (-1.0);
        add_rhs rhs row (eval_wave name wave)
    | Disource { p; m; name; wave } ->
        (* SPICE convention: positive current flows p -> m through the
           source, i.e. it is extracted from p and injected at m *)
        stamp_current rhs p m (eval_wave name wave)
    | Dcnfet { d; g; s; cgs_i; cgd_i; ti; _ } ->
        let tb = Option.get c.table in
        let vgs = Bigarray.Array1.get tb.ct_vgs ti
        and vds = Bigarray.Array1.get tb.ct_vds ti in
        let i0 = Bigarray.Array1.get tb.ct_i0 ti
        and gm = Bigarray.Array1.get tb.ct_gm ti
        and gds = Bigarray.Array1.get tb.ct_gds ti in
        (* linearised drain current i = ieq + gm*vgs + gds*vds *)
        let ieq = i0 -. (gm *. vgs) -. (gds *. vds) in
        let k = stamp vals program !cur d g gm in
        let k = stamp vals program k d s (-.gm) in
        let k = stamp vals program k s g (-.gm) in
        let k = stamp vals program k s s gm in
        let k = stamp_conductance vals program k d s gds in
        stamp_current rhs d s ieq;
        (* intrinsic capacitances participate like explicit ones *)
        cur :=
          if cgs_i >= 0 then
            stamp_cap_companion vals program rhs
              (stamp_cap_companion vals program rhs k g s caps.(cgs_i))
              g d caps.(cgd_i)
          else k
  done;
  if !cur <> Array.length program then
    invalid_arg "Mna.refill: stamp sequence diverged from compiled program"

(* Refill the system in place at [x].  The CNFET work runs first as two
   table passes — gather every device's (vgs, vds) from the solution
   vector, then evaluate the table through the backends' range kernels
   — and the scatter reads the table.

   The gather bypasses a row whose V_GS and V_DS have both moved by at
   most [tol * max 1 |x_nodes|_inf] since the row's last evaluation —
   the update [newton_result] calls converged, scaled by the node
   voltages alone: branch currents are not clamped, and those of a
   diverging iterate would widen the bound until every row was
   bypassed for good.  A bypassed row is flagged and keeps its bias and
   outputs; any other row gets the new bias and is evaluated.  A NaN
   bias (a fresh workspace, or one invalidated below) is within no
   bound.

   The [Fault.Nan_eval] decision is made once per refill: [Fault.fires]
   is a pure function of the installed spec and the rung/point context,
   none of which change within one refill.  A faulted refill evaluates
   every row and then invalidates every row's bias, so no later refill
   reuses its NaN currents. *)
let refill c ~tol ~eval_wave ~caps ~inds ~gmin x =
  match c.table with
  | None -> scatter c ~eval_wave ~caps ~inds ~gmin
  | Some tb ->
      let span_g = Obs.start_span "assemble.gather" in
      let fault = Fault.fires Fault.Nan_eval in
      let norm = ref 0.0 in
      for i = 0 to c.n_nodes - 1 do
        norm := Float.max !norm (Float.abs x.(i))
      done;
      let eps = if fault then Float.nan else tol *. Float.max 1.0 !norm in
      let bypassed = ref 0 in
      for k = 0 to tb.ct_n - 1 do
        let d = tb.ct_d.(k) and g = tb.ct_g.(k) and s = tb.ct_s.(k) in
        let vs = volt x s in
        let vgs = volt x g -. vs and vds = volt x d -. vs in
        if
          Float.abs (vgs -. Bigarray.Array1.get tb.ct_vgs k) <= eps
          && Float.abs (vds -. Bigarray.Array1.get tb.ct_vds k) <= eps
        then begin
          Bytes.set tb.ct_skip k '\001';
          incr bypassed
        end
        else begin
          Bytes.set tb.ct_skip k '\000';
          Bigarray.Array1.set tb.ct_vgs k vgs;
          Bigarray.Array1.set tb.ct_vds k vds
        end
      done;
      Obs.end_span span_g;
      let span_e = Obs.start_span "assemble.batch_eval" in
      Cnt_core.Device_model.eval tb.ct_kernel ~fault_i0:fault ~skip:tb.ct_skip
        ~vgs:tb.ct_vgs ~vds:tb.ct_vds ~i0:tb.ct_i0 ~gm:tb.ct_gm ~gds:tb.ct_gds;
      c.stats.device_evals <- c.stats.device_evals + tb.ct_n;
      c.stats.device_bypassed <- c.stats.device_bypassed + !bypassed;
      Obs.incr ~by:tb.ct_n c_device_evals;
      Obs.incr ~by:!bypassed c_device_bypassed;
      Obs.end_span span_e;
      let span_s = Obs.start_span "assemble.scatter" in
      scatter c ~eval_wave ~caps ~inds ~gmin;
      if fault then Bigarray.Array1.fill tb.ct_vgs Float.nan;
      Obs.end_span span_s

let companions_of_policies c ~cap ~ind =
  let caps =
    match cap with
    | Open_circuit -> c.zero_caps
    | Companions a ->
        if Array.length a <> Array.length c.zero_caps then
          invalid_arg "Mna.newton: capacitor companion count mismatch";
        a
  in
  let inds =
    match ind with
    | Short_circuit -> c.zero_inds
    | Ind_companions a ->
        if Array.length a <> Array.length c.zero_inds then
          invalid_arg "Mna.newton: inductor companion count mismatch";
        a
  in
  (caps, inds)

(* Newton iteration with a structured outcome.  [x0] is the starting
   guess; voltage updates are clamped to [max_step] volts per iteration
   to tame the exponential device characteristics.  With [damping] an
   Armijo-style backtracking line search additionally shortens any step
   that fails to reduce the residual norm — more assembles per
   iteration, so it is off on the fast path and turned on by the
   {!Homotopy} ladder's second rung. *)
let newton_result ?(gmin = 1e-12) ?(tol = 1e-9) ?(max_iter = 200)
    ?(max_step = 0.5) ?(damping = false) ?(ind = Short_circuit) c ~eval_wave
    ~cap x0 =
  let n = size c in
  let caps, inds = companions_of_policies c ~cap ~ind in
  let x = Array.copy x0 in
  let converged = ref false in
  let iter = ref 0 in
  let damped_steps = ref 0 in
  let failure = ref None in
  let worst_node = ref None in
  let last_residual = ref Float.nan in
  let st = c.stats in
  let exception Stop in
  let fail reason =
    failure := Some reason;
    raise Stop
  in
  (* names the row with the largest (or first NaN) residual against the
     currently assembled system; failure paths only *)
  let name_worst xv =
    let row, _ = Linear_solver.residual_argmax c.solver xv c.rhs in
    worst_node := Some (unknown_name c row)
  in
  let assemble xv =
    let t0 = now () in
    let span_a = Obs.start_span "mna.assemble" in
    refill c ~tol ~eval_wave ~caps ~inds ~gmin xv;
    Obs.end_span span_a;
    st.assemble_s <- st.assemble_s +. (now () -. t0)
  in
  let span_newton = Obs.start_span "mna.newton" in
  let finish () =
    Obs.observe h_iters (float_of_int !iter);
    Obs.end_span ~args:[ ("iterations", float_of_int !iter) ] span_newton
  in
  let x_trial = if damping then Array.make n 0.0 else [||] in
  let iterate () =
    if Fault.fires Fault.Exhaust_iters then begin
      last_residual := Float.infinity;
      failure := Some (Diag.Iterations_exhausted max_iter)
    end
    else begin
      while (not !converged) && !iter < max_iter do
        incr iter;
        st.newton_iterations <- st.newton_iterations + 1;
        Obs.incr c_newton_iters;
        assemble x;
        let t1 = now () in
        (* Newton residual of the current iterate, before the solve *)
        let r = Linear_solver.residual c.solver x c.rhs in
        st.residual <- r;
        last_residual := r;
        Obs.observe h_residual r;
        if not (Float.is_finite r) then begin
          name_worst x;
          fail (Diag.Non_finite "device evaluation produced a non-finite value")
        end;
        let span_s = Obs.start_span "mna.solve" in
        let x_new =
          if Fault.fires Fault.Singular_matrix then begin
            Obs.end_span span_s;
            fail (Diag.Singular "injected fault")
          end
          else begin
            try Linear_solver.solve c.solver c.rhs
            with Linear_solver.Singular k ->
              Obs.end_span span_s;
              let name = unknown_name c k in
              worst_node := Some name;
              fail (Diag.Singular ("zero pivot at " ^ name))
          end
        in
        Obs.end_span span_s;
        st.solve_s <- st.solve_s +. (now () -. t1);
        st.linear_solves <- st.linear_solves + 1;
        Obs.incr c_linear_solves;
        (* clamp the update; [worst] and [norm] are captured by no
           closure, so they stay unboxed.  [max_step] is rebound to an
           unboxed copy (x *. 1.0 is x, bit for bit): a clamp returning
           the boxed optional argument in one branch would box [dx] in
           the other, once per node per iteration. *)
        let max_step = max_step *. 1.0 in
        let worst = ref 0.0 in
        let norm = ref 0.0 in
        if damping then begin
          (* x_trial = x + t * clamp(dx), t = 1 being the plain clamped
             step; returns the largest |dx| over the node rows *)
          let apply_scaled t =
            let w = ref 0.0 in
            for i = 0 to n - 1 do
              let dx = x_new.(i) -. x.(i) in
              let dx_limited =
                if i < c.n_nodes then
                  Float.max (-.max_step) (Float.min max_step dx)
                else dx
              in
              if i < c.n_nodes then w := Float.max !w (Float.abs dx);
              x_trial.(i) <- x.(i) +. (t *. dx_limited)
            done;
            !w
          in
          (* Armijo backtracking on the assembled-residual merit: accept
             the first scale whose residual at the trial point beats the
             current one by the sufficient-decrease margin; the smallest
             scale is taken unconditionally rather than giving up. *)
          let rec search t =
            let w = apply_scaled t in
            if t <= 0.0626 then begin
              Array.blit x_trial 0 x 0 n;
              w
            end
            else begin
              assemble x_trial;
              let r_t = Linear_solver.residual c.solver x_trial c.rhs in
              if Float.is_finite r_t && r_t <= (1.0 -. (1e-4 *. t)) *. r then begin
                Array.blit x_trial 0 x 0 n;
                w
              end
              else begin
                Obs.incr c_damped_backtracks;
                incr damped_steps;
                search (t /. 2.0)
              end
            end
          in
          worst := search 1.0;
          for i = 0 to n - 1 do
            norm := Float.max !norm (Float.abs x.(i))
          done
        end
        else
          for i = 0 to n - 1 do
            let dx = x_new.(i) -. x.(i) in
            let dx_limited =
              if i < c.n_nodes then
                Float.max (-.max_step) (Float.min max_step dx)
              else dx
            in
            if i < c.n_nodes then worst := Float.max !worst (Float.abs dx);
            x.(i) <- x.(i) +. dx_limited;
            norm := Float.max !norm (Float.abs x.(i))
          done;
        if Float.is_nan !worst || not (Float.is_finite !norm) then begin
          name_worst x;
          fail (Diag.Non_finite "Newton update produced a non-finite iterate")
        end;
        if !worst <= tol *. Float.max 1.0 !norm then converged := true
      done;
      if not !converged then begin
        name_worst x;
        failure := Some (Diag.Iterations_exhausted max_iter)
      end
    end
  in
  (* the newton span must close on both paths; end_span also closes any
     assemble/solve span an exception unwound past *)
  (match iterate () with
  | () | (exception Stop) -> finish ()
  | exception e ->
      finish ();
      raise e);
  let report : Diag.newton_report =
    {
      converged = !converged;
      reason = !failure;
      iterations = !iter;
      residual = !last_residual;
      worst_node = !worst_node;
      damped_steps = !damped_steps;
    }
  in
  if !converged then Ok (x, report) else Error report

let newton ?gmin ?tol ?max_iter ?max_step ?damping ?ind c ~eval_wave ~cap x0 =
  match
    newton_result ?gmin ?tol ?max_iter ?max_step ?damping ?ind c ~eval_wave
      ~cap x0
  with
  | Ok (x, _) -> x
  | Error report -> raise (No_convergence report)

(* ------------------------------------------------------------------ *)
(* Assembly inspection (tests)                                         *)
(* ------------------------------------------------------------------ *)

let refill_dc ~tol c x =
  refill c ~tol
    ~eval_wave:(fun _ w -> Waveform.dc_value w)
    ~caps:c.zero_caps ~inds:c.zero_inds ~gmin:1e-12 x

let cnfet_row c k =
  let tb = Option.get c.table in
  Array.map
    (fun col -> Bigarray.Array1.get col k)
    [| tb.ct_vgs; tb.ct_vds; tb.ct_i0; tb.ct_gm; tb.ct_gds |]

let system c = Array.append (Linear_solver.values c.solver) c.rhs
