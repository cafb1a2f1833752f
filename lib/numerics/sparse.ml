(* Sparse matrices for MNA-style systems.

   Storage is compressed sparse row with a frozen pattern: [of_pattern]
   freezes the set of (row, col) locations once (the symbolic phase)
   into CSR arrays, and from then on only the value array changes (the
   numeric phase).  The build returns every location's value slot, so
   callers refill without searching; columns are sorted within each
   row, so [slot] can also find one by binary search over its row.

   The factorisation is a left-looking Gilbert-Peierls sparse LU with
   partial pivoting.  It is formulated on the CSC view of the matrix:
   the CSR arrays of A are exactly the CSC arrays of A^T, so we factor
   P A^T = L U column by column (each column of A^T is a row of A) and
   solve A x = b through the transposed factors:

     A = (P^-1 L U)^T  =>  U^T L^T (x renumbered by P) = b

   which needs only gather-style triangular solves over the stored
   columns.  Row pivoting on A^T is column pivoting on A; either is
   enough to keep MNA matrices (zero diagonals on voltage-source rows)
   stable.

   The L/U fill arrays live in a reusable workspace ([lu]) that grows
   geometrically and is otherwise allocation-free across refactors, so
   a Newton loop can refactor every iteration without churning the
   GC. *)

exception Singular of int

type t = {
  n : int;
  row_ptr : int array; (* n+1 row starts into cols/values *)
  cols : int array; (* column of each entry, sorted within a row *)
  values : float array;
}

(* Freeze a pattern into CSR by two counting sorts: bucket the entries
   by column, then sweep the columns in increasing order dealing each
   entry into its row, so every row receives its columns already sorted
   and a repeated location is always the row's last column so far.  The
   deal also records each entry's value slot. *)
let of_pattern ?pinv n rows cols =
  if n < 0 then invalid_arg "Sparse.of_pattern: negative dimension";
  let ne = Array.length rows in
  if Array.length cols <> ne then
    invalid_arg "Sparse.of_pattern: rows and cols differ in length";
  let renumber i = match pinv with None -> i | Some q -> q.(i) in
  let col_ptr = Array.make (n + 1) 0 in
  for k = 0 to ne - 1 do
    let i = rows.(k) and j = cols.(k) in
    if i < 0 || j < 0 || i >= n || j >= n then
      invalid_arg (Printf.sprintf "Sparse.of_pattern: (%d, %d) out of range" i j);
    let j = renumber j in
    col_ptr.(j + 1) <- col_ptr.(j + 1) + 1
  done;
  for j = 0 to n - 1 do
    col_ptr.(j + 1) <- col_ptr.(j + 1) + col_ptr.(j)
  done;
  (* each column's entries, in input order: row and entry index *)
  let rows_by_col = Array.make ne 0 and entry_by_col = Array.make ne 0 in
  let next = Array.sub col_ptr 0 (n + 1) in
  for k = 0 to ne - 1 do
    let j = renumber cols.(k) in
    rows_by_col.(next.(j)) <- renumber rows.(k);
    entry_by_col.(next.(j)) <- k;
    next.(j) <- next.(j) + 1
  done;
  (* first sweep counts each row's distinct columns, the second deals
     them; [last.(i)] is the column row [i] received last *)
  let last = Array.make n (-1) and row_ptr = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    for p = col_ptr.(j) to col_ptr.(j + 1) - 1 do
      let i = rows_by_col.(p) in
      if last.(i) <> j then begin
        last.(i) <- j;
        row_ptr.(i + 1) <- row_ptr.(i + 1) + 1
      end
    done
  done;
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  let csr_cols = Array.make row_ptr.(n) 0 and slots = Array.make ne 0 in
  Array.fill last 0 n (-1);
  Array.blit row_ptr 0 next 0 (n + 1);
  for j = 0 to n - 1 do
    for p = col_ptr.(j) to col_ptr.(j + 1) - 1 do
      let i = rows_by_col.(p) in
      if last.(i) <> j then begin
        last.(i) <- j;
        csr_cols.(next.(i)) <- j;
        next.(i) <- next.(i) + 1
      end;
      (* a repeat is the row's last column so far, one slot back *)
      slots.(entry_by_col.(p)) <- next.(i) - 1
    done
  done;
  ({ n; row_ptr; cols = csr_cols; values = Array.make row_ptr.(n) 0.0 }, slots)

let dim m = m.n
let nnz m = Array.length m.cols
let copy_pattern m = { m with values = Array.make (nnz m) 0.0 }

(* ------------------------------------------------------------------ *)
(* Fill-reducing ordering                                              *)
(* ------------------------------------------------------------------ *)

(* Greedy minimum-degree ordering (the exact-degree special case of the
   AMD family) on the symmetrised pattern graph.  Eliminating a vertex
   connects its remaining neighbours into a clique — exactly the fill a
   Cholesky-like factorisation of the symmetrised pattern would create —
   and the reported count is the sum of neighbourhood sizes at
   elimination time, an nnz(L) proxy that tracks the factorisation's
   work and memory.  Deterministic: degree ties break toward the lowest
   vertex index. *)

(* Symmetrised adjacency (no self loops) as per-vertex int arrays:
   [adj.(v)] holds [deg.(v)] distinct neighbours, in no particular order,
   and grows by doubling.  [mark] is a scratch marker array: a vertex
   is in the set being scanned when its mark equals the current stamp. *)
type adjacency = {
  adj : int array array;
  deg : int array;
  mark : int array;
  mutable stamp : int;
}

let adj_append g u w =
  let a = g.adj.(u) and d = g.deg.(u) in
  let a =
    if d < Array.length a then a
    else begin
      let grown = Array.make (max 4 (2 * d)) 0 in
      Array.blit a 0 grown 0 d;
      g.adj.(u) <- grown;
      grown
    end
  in
  a.(d) <- w;
  g.deg.(u) <- d + 1

(* Stamp the current neighbours of [u] (and [u] itself) as present. *)
let adj_mark g u =
  g.stamp <- g.stamp + 1;
  let a = g.adj.(u) in
  for k = 0 to g.deg.(u) - 1 do
    g.mark.(a.(k)) <- g.stamp
  done;
  g.mark.(u) <- g.stamp

let ordering_adjacency ~n rows cols =
  (* raw lists with repeats, sized exactly, then deduplicated in place *)
  let raw = Array.make n 0 in
  let in_range i j = i <> j && i >= 0 && j >= 0 && i < n && j < n in
  for k = 0 to Array.length rows - 1 do
    let i = rows.(k) and j = cols.(k) in
    if in_range i j then begin
      raw.(i) <- raw.(i) + 1;
      raw.(j) <- raw.(j) + 1
    end
  done;
  let g =
    {
      adj = Array.map (fun k -> Array.make k 0) raw;
      deg = Array.make n 0;
      mark = Array.make n 0;
      stamp = 0;
    }
  in
  for k = 0 to Array.length rows - 1 do
    let i = rows.(k) and j = cols.(k) in
    if in_range i j then begin
      adj_append g i j;
      adj_append g j i
    end
  done;
  for v = 0 to n - 1 do
    g.stamp <- g.stamp + 1;
    let a = g.adj.(v) and d = ref 0 in
    for k = 0 to g.deg.(v) - 1 do
      let u = a.(k) in
      if g.mark.(u) <> g.stamp then begin
        g.mark.(u) <- g.stamp;
        a.(!d) <- u;
        incr d
      end
    done;
    g.deg.(v) <- !d
  done;
  g

(* The next pivot comes from a binary min-heap of packed keys
   [degree * (n + 1) + vertex], so the smallest key is the lowest
   degree with ties to the lowest index.  Deletion is lazy: a vertex
   whose degree changes is pushed again under its new key, and a popped
   key that no longer matches its live vertex is skipped. *)
let amd_order ~n rows cols =
  if Array.length cols <> Array.length rows then
    invalid_arg "Sparse.amd_order: rows and cols differ in length";
  let g = ordering_adjacency ~n rows cols in
  let stride = n + 1 in
  let key v = (g.deg.(v) * stride) + v in
  let heap = ref (Array.make (max 16 n) 0) and size = ref 0 in
  let push x =
    if !size = Array.length !heap then begin
      let h = Array.make (2 * !size) 0 in
      Array.blit !heap 0 h 0 !size;
      heap := h
    end;
    let h = !heap in
    let i = ref !size in
    incr size;
    while !i > 0 && h.((!i - 1) / 2) > x do
      h.(!i) <- h.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    h.(!i) <- x
  in
  let pop () =
    let h = !heap in
    let top = h.(0) in
    decr size;
    let x = h.(!size) and i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < !size && h.(l + 1) < h.(l) then l + 1 else l in
      if c < !size && h.(c) < x then begin
        h.(!i) <- h.(c);
        i := c
      end
      else sifting := false
    done;
    h.(!i) <- x;
    top
  in
  for v = 0 to n - 1 do
    push (key v)
  done;
  let eliminated = Array.make n false in
  let perm = Array.make n 0 in
  let fill = ref 0 in
  for k = 0 to n - 1 do
    (* skip stale keys: eliminated vertices and outdated degrees *)
    let top = ref (pop ()) in
    while eliminated.(!top mod stride) || !top <> key (!top mod stride) do
      top := pop ()
    done;
    let v = !top mod stride in
    perm.(k) <- v;
    eliminated.(v) <- true;
    (* [v]'s own list is left alone below: it is in no clique and no
       other vertex lists it once it is removed from its neighbours *)
    let nbrs = g.adj.(v) and dv = g.deg.(v) in
    fill := !fill + dv;
    for e = 0 to dv - 1 do
      let u = nbrs.(e) in
      let a = g.adj.(u) and last = g.deg.(u) - 1 in
      let p = ref 0 in
      while a.(!p) <> v do
        incr p
      done;
      a.(!p) <- a.(last);
      g.deg.(u) <- last
    done;
    (* connect the neighbours into a clique *)
    for e = 0 to dv - 1 do
      let u = nbrs.(e) in
      adj_mark g u;
      let stamp = g.stamp in
      for f = 0 to dv - 1 do
        let w = nbrs.(f) in
        if g.mark.(w) <> stamp then adj_append g u w
      done
    done;
    for e = 0 to dv - 1 do
      push (key nbrs.(e))
    done
  done;
  (perm, !fill)

(* Value slot of column [j] in row [i] by binary search over the row's
   sorted columns; -1 when absent. *)
let rec search cols j lo hi =
  if lo >= hi then -1
  else begin
    let mid = (lo + hi) lsr 1 in
    let c = cols.(mid) in
    if c = j then mid else if c < j then search cols j (mid + 1) hi else search cols j lo mid
  end

let find m i j = search m.cols j m.row_ptr.(i) m.row_ptr.(i + 1)

let slot m i j =
  if i < 0 || j < 0 || i >= m.n || j >= m.n then
    invalid_arg (Printf.sprintf "Sparse.slot: (%d, %d) out of range" i j);
  match find m i j with
  | -1 ->
      invalid_arg (Printf.sprintf "Sparse.slot: (%d, %d) not in pattern" i j)
  | s -> s

let clear m = Array.fill m.values 0 (Array.length m.values) 0.0
let add_slot m s v = m.values.(s) <- m.values.(s) +. v
let values m = m.values
let add_to m i j v = add_slot m (slot m i j) v

let get m i j =
  if i < 0 || j < 0 || i >= m.n || j >= m.n then
    invalid_arg (Printf.sprintf "Sparse.get: (%d, %d) out of range" i j);
  match find m i j with -1 -> 0.0 | s -> m.values.(s)

let mul_vec m x =
  if Array.length x <> m.n then invalid_arg "Sparse.mul_vec: dimension mismatch";
  Array.init m.n (fun i ->
      let acc = ref 0.0 in
      for p = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
        acc := !acc +. (m.values.(p) *. x.(m.cols.(p)))
      done;
      !acc)

let residual_inf m x b =
  if Array.length x <> m.n || Array.length b <> m.n then
    invalid_arg "Sparse.residual_inf: dimension mismatch";
  let worst = ref 0.0 in
  for i = 0 to m.n - 1 do
    let acc = ref (-.b.(i)) in
    for p = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      acc := !acc +. (m.values.(p) *. x.(m.cols.(p)))
    done;
    worst := Float.max !worst (Float.abs !acc)
  done;
  !worst

(* ------------------------------------------------------------------ *)
(* Left-looking LU with partial pivoting                               *)
(* ------------------------------------------------------------------ *)

type lu = {
  lu_n : int;
  lp : int array; (* n+1 column starts of L (unit diagonal stored first) *)
  mutable li : int array; (* row indices of L entries, original numbering *)
  mutable lx : float array;
  up : int array; (* n+1 column starts of U (diagonal stored last) *)
  mutable ui : int array; (* row indices of U entries, pivotal numbering *)
  mutable ux : float array;
  pinv : int array; (* original row -> pivotal position *)
  p : int array; (* pivotal position -> original row *)
  wx : float array; (* dense accumulator, zero outside the active column *)
  stack : int array; (* DFS node stack *)
  pstack : int array; (* DFS edge-position stack *)
  order : int array; (* topological reach, filled from the top down *)
  mark : int array; (* DFS visited stamps *)
  y : float array; (* solve scratch *)
}

(* Each factor holds [fill] off-diagonal entries plus its diagonal, and
   [refactor] wants room for one more full column before it starts a
   column, so [fill + 2n + 1] entries never grow when pivoting adds no
   fill beyond the ordering's estimate. *)
let lu_create ?fill m =
  let n = m.n in
  let fill = match fill with Some f -> f | None -> nnz m in
  let cap = max 16 (fill + (2 * n) + 1) in
  {
    lu_n = n;
    lp = Array.make (n + 1) 0;
    li = Array.make cap 0;
    lx = Array.make cap 0.0;
    up = Array.make (n + 1) 0;
    ui = Array.make cap 0;
    ux = Array.make cap 0.0;
    pinv = Array.make n (-1);
    p = Array.make n 0;
    wx = Array.make n 0.0;
    stack = Array.make (max n 1) 0;
    pstack = Array.make (max n 1) 0;
    order = Array.make (max n 1) 0;
    mark = Array.make (max n 1) 0;
    y = Array.make n 0.0;
  }

let refactor lu m =
  let n = m.n in
  if lu.lu_n <> n then invalid_arg "Sparse.refactor: workspace dimension mismatch";
  let mp = m.row_ptr and mi = m.cols and mx = m.values in
  Array.fill lu.pinv 0 n (-1);
  if n > 0 then begin
    Array.fill lu.mark 0 n 0;
    Array.fill lu.wx 0 n 0.0
  end;
  let lnz = ref 0 and unz = ref 0 in
  for k = 0 to n - 1 do
    lu.lp.(k) <- !lnz;
    lu.up.(k) <- !unz;
    (* grow-only capacity: a column adds at most n+1 entries to each *)
    let need_l = !lnz + n + 1 and need_u = !unz + n + 1 in
    if Array.length lu.li < need_l then begin
      let cap = max need_l (2 * Array.length lu.li) in
      let li = Array.make cap 0 and lx = Array.make cap 0.0 in
      Array.blit lu.li 0 li 0 !lnz;
      Array.blit lu.lx 0 lx 0 !lnz;
      lu.li <- li;
      lu.lx <- lx
    end;
    if Array.length lu.ui < need_u then begin
      let cap = max need_u (2 * Array.length lu.ui) in
      let ui = Array.make cap 0 and ux = Array.make cap 0.0 in
      Array.blit lu.ui 0 ui 0 !unz;
      Array.blit lu.ux 0 ux 0 !unz;
      lu.ui <- ui;
      lu.ux <- ux
    end;
    (* symbolic: topological reach of row k of A (column k of A^T)
       through the graph of the L columns computed so far *)
    let stamp = k + 1 in
    let top = ref n in
    for p0 = mp.(k) to mp.(k + 1) - 1 do
      let root = mi.(p0) in
      if lu.mark.(root) <> stamp then begin
        let head = ref 0 in
        lu.stack.(0) <- root;
        while !head >= 0 do
          let node = lu.stack.(!head) in
          if lu.mark.(node) <> stamp then begin
            lu.mark.(node) <- stamp;
            lu.pstack.(!head) <-
              (if lu.pinv.(node) < 0 then 0 else lu.lp.(lu.pinv.(node)) + 1)
          end;
          let jnew = lu.pinv.(node) in
          let pend = if jnew < 0 then 0 else lu.lp.(jnew + 1) in
          let pos = ref lu.pstack.(!head) in
          let descended = ref false in
          while (not !descended) && !pos < pend do
            let child = lu.li.(!pos) in
            incr pos;
            if lu.mark.(child) <> stamp then begin
              lu.pstack.(!head) <- !pos;
              incr head;
              lu.stack.(!head) <- child;
              descended := true
            end
          done;
          if not !descended then begin
            decr head;
            decr top;
            lu.order.(!top) <- node
          end
        done
      end
    done;
    (* numeric: scatter the row, then eliminate with the already
       pivotal columns in topological order *)
    for p0 = mp.(k) to mp.(k + 1) - 1 do
      lu.wx.(mi.(p0)) <- mx.(p0)
    done;
    for px = !top to n - 1 do
      let i = lu.order.(px) in
      let jnew = lu.pinv.(i) in
      if jnew >= 0 then begin
        let xi = lu.wx.(i) in
        if xi <> 0.0 then
          for p0 = lu.lp.(jnew) + 1 to lu.lp.(jnew + 1) - 1 do
            let r = lu.li.(p0) in
            lu.wx.(r) <- lu.wx.(r) -. (lu.lx.(p0) *. xi)
          done
      end
    done;
    (* pivotal entries feed U; the largest non-pivotal entry pivots *)
    let ipiv = ref (-1) and amax = ref 0.0 in
    for px = !top to n - 1 do
      let i = lu.order.(px) in
      let jnew = lu.pinv.(i) in
      if jnew >= 0 then begin
        lu.ui.(!unz) <- jnew;
        lu.ux.(!unz) <- lu.wx.(i);
        incr unz
      end
      else begin
        let a = Float.abs lu.wx.(i) in
        if a > !amax then begin
          amax := a;
          ipiv := i
        end
      end
    done;
    if !ipiv < 0 || !amax = 0.0 then raise (Singular k);
    let pivval = lu.wx.(!ipiv) in
    lu.pinv.(!ipiv) <- k;
    lu.p.(k) <- !ipiv;
    lu.li.(!lnz) <- !ipiv;
    lu.lx.(!lnz) <- 1.0;
    incr lnz;
    for px = !top to n - 1 do
      let i = lu.order.(px) in
      if lu.pinv.(i) < 0 then begin
        lu.li.(!lnz) <- i;
        lu.lx.(!lnz) <- lu.wx.(i) /. pivval;
        incr lnz
      end;
      lu.wx.(i) <- 0.0
    done;
    lu.ui.(!unz) <- k;
    lu.ux.(!unz) <- pivval;
    incr unz
  done;
  lu.lp.(n) <- !lnz;
  lu.up.(n) <- !unz

let lu_solve ?pinv lu b =
  let n = lu.lu_n in
  if Array.length b <> n then invalid_arg "Sparse.lu_solve: dimension mismatch";
  let y = lu.y in
  (* forward solve U^T y = b; U columns store their diagonal last *)
  for k = 0 to n - 1 do
    let acc = ref b.(k) in
    let p1 = lu.up.(k + 1) in
    for p = lu.up.(k) to p1 - 2 do
      acc := !acc -. (lu.ux.(p) *. y.(lu.ui.(p)))
    done;
    y.(k) <- !acc /. lu.ux.(p1 - 1)
  done;
  (* backward solve L^T z = y in place; L columns store a unit diagonal
     first and original row indices below *)
  for k = n - 1 downto 0 do
    let acc = ref y.(k) in
    for p = lu.lp.(k) + 1 to lu.lp.(k + 1) - 1 do
      acc := !acc -. (lu.lx.(p) *. y.(lu.pinv.(lu.li.(p))))
    done;
    y.(k) <- !acc
  done;
  (* undo the pivoting renumber, x_i = z_(pinv i), composed with the
     caller's own renumber when given; filled in a loop, since
     [Array.init] over a float closure boxes every element *)
  let x = Array.create_float n in
  (match pinv with
  | None ->
      for i = 0 to n - 1 do
        x.(i) <- y.(lu.pinv.(i))
      done
  | Some q ->
      for i = 0 to n - 1 do
        x.(i) <- y.(lu.pinv.(q.(i)))
      done);
  x

let solve m b =
  let lu = lu_create m in
  refactor lu m;
  lu_solve lu b
