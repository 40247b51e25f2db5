(* Conflict-driven pseudo-Boolean optimizer.

   Rows are normalized to  Σ a·lit ≥ b  with a > 0 over literals (a variable
   or its complement).  Propagation is slack-based: [poss] is the maximum
   achievable LHS under the current partial assignment; a literal whose
   coefficient exceeds [poss - b] is forced.

   Search is CDCL: every propagation records its reason row; conflicts are
   analyzed to a 1-UIP clause through the sound clausal abstraction of a PB
   row (the row implies "the forced literal, or one of the literals it had
   already falsified"), learned as a coefficient-1 row, and used to
   backjump.  Branch-and-bound comes from objective-bound rows added at
   each incumbent; the optimum is proved when a conflict reaches level 0.

   Layout: a literal is the int [2·var + pol] and holds when
   [value.(var) = pol] (pol 1: the variable, pol 0: its complement).  Rows
   are stored as parallel arrays indexed by row: an [int array] of literals
   and a [float array] of coefficients per row, and [bound], [tol], [poss],
   [sure] in flat float arrays, so the propagation loops neither allocate
   nor chase boxed tuples.

   The row kind selects the propagation rule.  Learned clauses (all
   coefficients 1, bound 1) are the bulk of the database and of the row
   visits, so they use two watched literals: slots 0 and 1 of the clause,
   visited only when one of them becomes false, and never on backtrack.
   Every other row (model, floor, bound and cap rows) keeps the [poss] /
   [sure] counters, updated through per-literal occurrence arrays kept in
   insertion order and visited newest first; [Row_stats] binding and the
   new-row infeasibility checks read those counters.

   Persistent sessions ({!Session}) keep the solver state alive across
   successive solves of a monotonically growing model (ILP-MR appends rows
   every iteration).  Everything derived from the model alone is reusable;
   everything derived from an objective bound is not — bound rows encode
   "better than the incumbent of THAT solve", which later solves must not
   inherit.  Each constraint therefore carries a kind (model / learned /
   bound) and a taint bit: a learned clause is tainted when its derivation
   touched a bound row (directly, through a tainted learned clause, or
   through a level-0 fact that itself depends on a bound).  At the start of
   every re-solve, [purge_volatile] drops bound rows, tainted learned
   clauses and tainted level-0 trail entries; untainted learned clauses,
   variable activities, saved phases, the restart schedule and the clean
   level-0 trail carry over. *)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learned : int;
  bound : float option;
}

let zero_stats =
  { decisions = 0;
    propagations = 0;
    conflicts = 0;
    restarts = 0;
    learned = 0;
    bound = None }

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Limit_reached of { incumbent : (float * float array) option }

(* A normalized row  Σ coefs.(i)·lits.(i) ≥ bound, coefficients positive
   and descending; the unit in which rows enter the solver state. *)
type row = {
  lits : int array;
  coefs : float array;
  bound : float;
  tol : float;
}

let lit_of x pol = (2 * x) + pol

(* Where a constraint came from — governs what survives a session re-solve. *)
type ckind =
  | Kmodel (* normalized model row: permanent *)
  | Klearned (* CDCL-learned clause: permanent unless tainted *)
  | Kbound (* objective bound / cap row: valid for one solve only *)

exception Trivially_infeasible

(* Normalize [expr cmp rhs] into zero, one or two ≥-rows with positive
   coefficients.  Tautologies are dropped; impossible rows raise. *)
let normalize_row expr cmp rhs =
  let build terms rhs =
    let fold (lits, bound) (x, a) =
      if a > 0. then ((x, a, 1) :: lits, bound)
      else ((x, -.a, 0) :: lits, bound +. -.a)
    in
    let lits, bound = List.fold_left fold ([], rhs) terms in
    let total = List.fold_left (fun acc (_, a, _) -> acc +. a) 0. lits in
    let tol = 1e-9 *. Float.max 1. (Float.max total (Float.abs bound)) in
    if bound <= tol then None
    else if total < bound -. tol then raise Trivially_infeasible
    else begin
      let sorted =
        List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a) lits
        |> Array.of_list
      in
      Some
        { lits = Array.map (fun (x, _, pol) -> lit_of x pol) sorted;
          coefs = Array.map (fun (_, a, _) -> a) sorted;
          bound;
          tol }
    end
  in
  let terms = Lin_expr.terms expr in
  let negated = List.map (fun (x, a) -> (x, -.a)) terms in
  match cmp with
  | Model.Ge -> Option.to_list (build terms rhs)
  | Model.Le -> Option.to_list (build negated (-.rhs))
  | Model.Eq ->
      Option.to_list (build terms rhs)
      @ Option.to_list (build negated (-.rhs))

(* Reason codes stored per assigned variable. *)
let reason_decision = -1
let reason_bound = -2 (* propagated/conflicted by the objective bound *)

type state = {
  mutable ncons : int;
  (* rows, struct-of-arrays; capacity grows with learned rows *)
  mutable lits : int array array;
  mutable coefs : float array array;
  mutable bound : float array;
  mutable tol : float array;
  mutable poss : float array;        (* max achievable LHS *)
  mutable sure : float array;        (* LHS of the literals already true *)
  mutable ckind : ckind array;
  mutable ctainted : bool array;     (* bound-derived *)
  mutable origin : int array;        (* model row, or -1 *)
  mutable n_learned : int;           (* learned rows currently in the DB *)
  mutable n_learned_total : int;     (* learned rows ever (monotone) *)
  mutable row_stats : Row_stats.t option; (* per-model-row activity, opt-in *)
  (* per literal: the counter rows containing it and its coefficient there *)
  mutable occ : int array array;
  mutable occ_coef : float array array;
  mutable occ_n : int array;
  (* per literal: the learned clauses watching it *)
  mutable watch : int array array;
  mutable watch_n : int array;
  mutable value : int array;         (* -1 / 0 / 1 *)
  mutable level : int array;
  mutable reason : int array;        (* con index, or a reason code *)
  mutable var_tainted : bool array;  (* level-0 fact depends on a bound row *)
  mutable trail_pos : int array;
  mutable trail : int array;
  mutable trail_size : int;
  mutable trail_lim : int array;     (* trail size at each decision *)
  mutable dlevel : int;              (* current decision level *)
  mutable obj : float array;
  mutable obj_const : float;
  mutable base_lb : float;
  mutable lb_extra : float;
  mutable by_cost : int array;       (* vars with obj ≠ 0, |obj| desc *)
  mutable obj_integral : bool;       (* all objective coefficients integral *)
  (* propagation queue: a FIFO ring of (literal to make true, reason);
     capacity a power of two, doubled when full *)
  mutable pend_lit : int array;
  mutable pend_reason : int array;
  mutable pend_head : int;
  mutable pend_size : int;
  mutable heap : Var_heap.t;
  mutable var_inc : float;
  mutable phase : int array;         (* saved phase per var *)
  mutable best : (float * float array) option;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_conflicts : int;
  mutable n_restarts : int;
  mutable restart_sched : int;       (* Luby index, survives re-solves *)
  mutable conflicts_until_restart : int;
  mutable synced_rows : int;         (* model rows already registered *)
  mutable seen : bool array;         (* scratch for conflict analysis *)
  mutable learnt : int array;        (* scratch: lower-level learned literals *)
  mutable rng : int;                 (* deterministic LCG for phase jitter *)
}

let cheap_value st x = if st.obj.(x) >= 0. then 0 else 1
let expensivep st x = (st.value.(x) = 1) = (st.obj.(x) > 0.) && st.obj.(x) <> 0.
let cost_lb st = st.base_lb +. st.lb_extra +. st.obj_const
let row_violated st ci = st.poss.(ci) < st.bound.(ci) -. st.tol.(ci)

let lit_false st l =
  let v = st.value.(l lsr 1) in
  v >= 0 && v <> l land 1

let obj_tol st =
  match st.best with
  | None -> 0.
  | Some (c, _) -> 1e-9 *. Float.max 1. (Float.abs c)

let bound_exceeded st =
  match st.best with
  | None -> false
  | Some (best, _) -> cost_lb st >= best -. obj_tol st

(* Does deriving from this reason make the derivation bound-dependent? *)
let reason_taints st r =
  if r = reason_bound then true
  else if r >= 0 then
    match st.ckind.(r) with
    | Kbound -> true
    | Klearned -> st.ctainted.(r)
    | Kmodel -> false
  else false

let push_pending st l reason =
  let cap = Array.length st.pend_lit in
  if st.pend_size = cap then begin
    let lits = Array.make (2 * cap) 0 and reasons = Array.make (2 * cap) 0 in
    for i = 0 to cap - 1 do
      let j = (st.pend_head + i) land (cap - 1) in
      lits.(i) <- st.pend_lit.(j);
      reasons.(i) <- st.pend_reason.(j)
    done;
    st.pend_lit <- lits;
    st.pend_reason <- reasons;
    st.pend_head <- 0
  end;
  let j = (st.pend_head + st.pend_size) land (Array.length st.pend_lit - 1) in
  st.pend_lit.(j) <- l;
  st.pend_reason.(j) <- reason;
  st.pend_size <- st.pend_size + 1

let clear_pending st =
  st.pend_head <- 0;
  st.pend_size <- 0

let add_occ st l ci a =
  let n = st.occ_n.(l) in
  if n = Array.length st.occ.(l) then begin
    let cap = max 4 (2 * n) in
    let rows = Array.make cap 0 and coefs = Array.make cap 0. in
    Array.blit st.occ.(l) 0 rows 0 n;
    Array.blit st.occ_coef.(l) 0 coefs 0 n;
    st.occ.(l) <- rows;
    st.occ_coef.(l) <- coefs
  end;
  st.occ.(l).(n) <- ci;
  st.occ_coef.(l).(n) <- a;
  st.occ_n.(l) <- n + 1

let add_watch st l ci =
  let n = st.watch_n.(l) in
  if n = Array.length st.watch.(l) then begin
    let ws = Array.make (max 4 (2 * n)) 0 in
    Array.blit st.watch.(l) 0 ws 0 n;
    st.watch.(l) <- ws
  end;
  st.watch.(l).(n) <- ci;
  st.watch_n.(l) <- n + 1

(* Watch slots 0 and 1 of learned clause [ci].  A unit clause needs no
   watch: it is asserted at level 0, where nothing unassigns it. *)
let watch_clause st ci =
  let c = st.lits.(ci) in
  if Array.length c >= 2 then begin
    add_watch st c.(0) ci;
    add_watch st c.(1) ci
  end

(* Register counter row [ci] in the occurrence arrays and set its slack
   counters from the current assignment. *)
let index_row st ci =
  let lits = st.lits.(ci) and coefs = st.coefs.(ci) in
  let poss = ref 0. and sure = ref 0. in
  for i = 0 to Array.length lits - 1 do
    let l = lits.(i) and a = coefs.(i) in
    add_occ st l ci a;
    let v = st.value.(l lsr 1) in
    if v < 0 then poss := !poss +. a
    else if v = l land 1 then begin
      poss := !poss +. a;
      sure := !sure +. a
    end
  done;
  st.poss.(ci) <- !poss;
  st.sure.(ci) <- !sure

(* Move row [src] to slot [dst] (database compaction). *)
let move_row st ~src ~dst =
  st.lits.(dst) <- st.lits.(src);
  st.coefs.(dst) <- st.coefs.(src);
  st.bound.(dst) <- st.bound.(src);
  st.tol.(dst) <- st.tol.(src);
  st.ckind.(dst) <- st.ckind.(src);
  st.ctainted.(dst) <- st.ctainted.(src);
  st.origin.(dst) <- st.origin.(src)

let add_con ?(kind = Kmodel) ?(tainted = false) ?(origin = -1) st (row : row) =
  if st.ncons = Array.length st.lits then begin
    let cap = max 16 (2 * st.ncons) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 st.ncons;
      b
    in
    st.lits <- grow st.lits [||];
    st.coefs <- grow st.coefs [||];
    st.bound <- grow st.bound 0.;
    st.tol <- grow st.tol 0.;
    st.poss <- grow st.poss 0.;
    st.sure <- grow st.sure 0.;
    st.ckind <- grow st.ckind Kmodel;
    st.ctainted <- grow st.ctainted false;
    st.origin <- grow st.origin (-1)
  end;
  let ci = st.ncons in
  st.lits.(ci) <- row.lits;
  st.coefs.(ci) <- row.coefs;
  st.bound.(ci) <- row.bound;
  st.tol.(ci) <- row.tol;
  st.ckind.(ci) <- kind;
  st.ctainted.(ci) <- tainted;
  st.origin.(ci) <- origin;
  if kind = Klearned then st.n_learned <- st.n_learned + 1;
  st.ncons <- st.ncons + 1;
  (* a new learned clause arrives with its watches in slots 0 and 1; other
     rows get occurrences and poss/sure reflecting the assignment *)
  if kind = Klearned then watch_clause st ci else index_row st ci;
  ci

(* Attribute solver activity to the model row a con originated from.
   No-op without a tracker, for solver-internal cons (learned clauses,
   bound rows: origin -1) and for reason codes (negative [ci]). *)
let note_activity st bump ci =
  match st.row_stats with
  | None -> ()
  | Some rs -> if ci >= 0 then bump rs st.origin.(ci)

(* Queue the implications of a counter row whose slack shrank. *)
let enqueue_implications st ci =
  let bound = st.bound.(ci) and tol = st.tol.(ci) in
  if st.sure.(ci) < bound -. tol then begin
    let limit = st.poss.(ci) -. bound +. tol in
    let lits = st.lits.(ci) and coefs = st.coefs.(ci) in
    let n = Array.length lits in
    let i = ref 0 in
    while !i < n && coefs.(!i) > limit do
      let l = lits.(!i) in
      if st.value.(l lsr 1) < 0 then push_pending st l ci;
      incr i
    done
  end

(* Queue the implications of any row right after [rebuild_index], which
   leaves a learned clause's non-false literals in its watched slots: the
   clause is unit when slot 1 is false (or absent) and slot 0 unassigned. *)
let enqueue_row st ci =
  if st.ckind.(ci) = Klearned then begin
    let c = st.lits.(ci) in
    if
      (Array.length c = 1 || lit_false st c.(1))
      && st.value.(c.(0) lsr 1) < 0
    then push_pending st c.(0) ci
  end
  else enqueue_implications st ci

exception Conflict of int (* con index, or reason_bound *)

(* Visit the learned clauses watching literal [f], which just became
   false: move each watch to another non-false literal, or queue the
   clause's other watch when it is the last one left.  Returns the first
   clause found with every literal false, or -3. *)
let propagate_watches st f =
  let ws = st.watch.(f) and n = st.watch_n.(f) in
  let i = ref 0 and kept = ref 0 and conflict = ref (-3) in
  while !i < n do
    let ci = ws.(!i) in
    incr i;
    let c = st.lits.(ci) in
    if c.(0) = f then begin
      c.(0) <- c.(1);
      c.(1) <- f
    end;
    let other = c.(0) in
    if st.value.(other lsr 1) = other land 1 then begin
      (* satisfied by the other watch *)
      ws.(!kept) <- ci;
      incr kept
    end
    else begin
      let len = Array.length c in
      let k = ref 2 in
      while !k < len && lit_false st c.(!k) do incr k done;
      if !k < len then begin
        c.(1) <- c.(!k);
        c.(!k) <- f;
        add_watch st c.(1) ci
      end
      else begin
        ws.(!kept) <- ci;
        incr kept;
        if lit_false st other then begin
          conflict := ci;
          (* keep the unvisited watchers *)
          while !i < n do
            ws.(!kept) <- ws.(!i);
            incr kept;
            incr i
          done
        end
        else push_pending st other ci
      end
    end
  done;
  st.watch_n.(f) <- !kept;
  !conflict

(* A level-0 fact is a permanent consequence of the model only when its
   whole derivation is: the reason must be bound-free and every assigned
   co-literal of the reason row must itself be clean.  Conservative
   (over-taints some clean facts) and therefore sound to persist. *)
let root_fact_tainted st x reason =
  reason_taints st reason
  || reason >= 0
     &&
     let lits = st.lits.(reason) in
     let rec scan i =
       i < Array.length lits
       &&
       let y = lits.(i) lsr 1 in
       (y <> x && st.value.(y) >= 0 && st.var_tainted.(y)) || scan (i + 1)
     in
     scan 0

(* Assign and update rows; raises [Conflict] (the trail keeps the
   assignment so that analysis sees a consistent state). *)
let assign st x v reason =
  if st.value.(x) >= 0 then begin
    if st.value.(x) <> v then
      (* the enqueued implication contradicts the current value: its reason
         row is conflicting under the assignment *)
      raise (Conflict reason)
  end
  else begin
    st.value.(x) <- v;
    st.level.(x) <- st.dlevel;
    st.reason.(x) <- reason;
    if st.dlevel = 0 then st.var_tainted.(x) <- root_fact_tainted st x reason;
    st.trail_pos.(x) <- st.trail_size;
    st.phase.(x) <- v;
    st.trail.(st.trail_size) <- x;
    st.trail_size <- st.trail_size + 1;
    if expensivep st x then st.lb_extra <- st.lb_extra +. Float.abs st.obj.(x);
    let t = lit_of x v in
    let rows = st.occ.(t) and cs = st.occ_coef.(t) in
    for k = st.occ_n.(t) - 1 downto 0 do
      let ci = rows.(k) in
      st.sure.(ci) <- st.sure.(ci) +. cs.(k)
    done;
    let f = t lxor 1 in
    (* learned clauses first, as the newest rows; every counter row is
       updated even after a conflict, so that [unassign] stays exact *)
    let conflict = ref (propagate_watches st f) in
    let rows = st.occ.(f) and cs = st.occ_coef.(f) in
    for k = st.occ_n.(f) - 1 downto 0 do
      let ci = rows.(k) in
      st.poss.(ci) <- st.poss.(ci) -. cs.(k);
      if row_violated st ci then begin
        if !conflict = -3 then conflict := ci
      end
      else enqueue_implications st ci
    done;
    if !conflict >= 0 then raise (Conflict !conflict);
    if bound_exceeded st then raise (Conflict reason_bound)
  end

let unassign st x =
  let v = st.value.(x) in
  st.value.(x) <- -1;
  Var_heap.push st.heap x;
  if (v = 1) = (st.obj.(x) > 0.) && st.obj.(x) <> 0. then
    st.lb_extra <- st.lb_extra -. Float.abs st.obj.(x);
  let t = lit_of x v in
  let rows = st.occ.(t) and cs = st.occ_coef.(t) in
  for k = 0 to st.occ_n.(t) - 1 do
    let ci = rows.(k) in
    st.sure.(ci) <- st.sure.(ci) -. cs.(k)
  done;
  let f = t lxor 1 in
  let rows = st.occ.(f) and cs = st.occ_coef.(f) in
  for k = 0 to st.occ_n.(f) - 1 do
    let ci = rows.(k) in
    st.poss.(ci) <- st.poss.(ci) +. cs.(k)
  done

let backtrack_to_level st lvl =
  if st.dlevel > lvl then begin
    let mark = st.trail_lim.(lvl) in
    while st.trail_size > mark do
      st.trail_size <- st.trail_size - 1;
      unassign st st.trail.(st.trail_size)
    done;
    st.dlevel <- lvl
  end;
  clear_pending st

let new_decision_level st =
  st.trail_lim.(st.dlevel) <- st.trail_size;
  st.dlevel <- st.dlevel + 1

(* Objective propagation: with an incumbent, a variable whose expensive
   value alone would exceed it must take its cheap value. *)
let propagate_objective st =
  match st.best with
  | None -> ()
  | Some (best, _) ->
      let slack = best -. obj_tol st -. cost_lb st in
      let n = Array.length st.by_cost in
      let i = ref 0 in
      while !i < n && Float.abs st.obj.(st.by_cost.(!i)) > slack do
        let x = st.by_cost.(!i) in
        if st.value.(x) < 0 then
          push_pending st (lit_of x (cheap_value st x)) reason_bound;
        incr i
      done

(* Drain the queue; raises [Conflict].  The objective scan only reruns when
   the cost lower bound moved (an expensive assignment happened). *)
let propagate st =
  propagate_objective st;
  while st.pend_size > 0 do
    let l = st.pend_lit.(st.pend_head)
    and reason = st.pend_reason.(st.pend_head) in
    st.pend_head <- (st.pend_head + 1) land (Array.length st.pend_lit - 1);
    st.pend_size <- st.pend_size - 1;
    let x = l lsr 1 and v = l land 1 in
    if st.value.(x) < 0 then begin
      st.n_propagations <- st.n_propagations + 1;
      note_activity st Row_stats.bump_propagation reason;
      let lb_before = st.lb_extra in
      assign st x v reason;
      if st.lb_extra <> lb_before then propagate_objective st
    end
    else if st.value.(x) <> v then raise (Conflict reason)
  done

(* ------------------------------------------------------------------ *)
(* Conflict analysis                                                   *)

(* Greedy-minimal subset of the expensive assignments whose flip could
   repair the objective bound: vars assigned their expensive value (before
   trail position [before_pos]) taken by descending cost until the
   remaining lower bound fits under the incumbent.  Smaller clauses learn
   more.  The subset is the eligible vars among [by_cost.(0 .. k-1)], for
   the returned [k]; its clausal literals are their cheap values. *)
let expensive_eligible st before_pos y =
  st.value.(y) >= 0 && expensivep st y && st.trail_pos.(y) < before_pos

let expensive_cut st ~before_pos ~extra =
  match st.best with
  | None -> 0
  | Some (best, _) ->
      let target = best -. obj_tol st -. st.base_lb -. st.obj_const -. extra in
      (* keep the assignments as long as their costs alone reach the
         incumbent: if none of them flips, no improvement is possible *)
      let n = Array.length st.by_cost in
      let sum = ref 0. and i = ref 0 in
      while !i < n && !sum < target do
        let y = st.by_cost.(!i) in
        if expensive_eligible st before_pos y then
          sum := !sum +. Float.abs st.obj.(y);
        incr i
      done;
      !i

let bump st x =
  Var_heap.bump st.heap x st.var_inc;
  if Var_heap.activity st.heap x > 1e100 then begin
    Var_heap.rescale st.heap 1e-100;
    st.var_inc <- st.var_inc *. 1e-100
  end

(* 1-UIP analysis over the clausal view of each row involved: for a PB row,
   its falsified literals (assigned before the propagated one, when it is
   a reason); for the objective bound, the cheap literals of a minimal
   expensive subset.  Literals are absorbed (bumped) in row order, and in
   reverse [by_cost] order for a subset.  Returns (learned clause, backjump
   level, taint): the asserting literal comes first, then the lower-level
   literals in reverse absorb order; the clause is tainted when any reason
   expanded into it was bound-derived (valid for this solve but not for a
   later session solve).  Returns None when the conflict is independent of
   any decision (level 0): the model is exhausted. *)
let analyze st conflict_reason =
  let current = st.dlevel in
  if current = 0 then None
  else begin
    let counter = ref 0 and btlevel = ref 0 and nlearnt = ref 0 in
    let tainted = ref (reason_taints st conflict_reason) in
    let absorb l =
      let x = l lsr 1 in
      if not st.seen.(x) then begin
        if st.level.(x) > 0 then begin
          st.seen.(x) <- true;
          bump st x;
          if st.level.(x) >= current then incr counter
          else begin
            st.learnt.(!nlearnt) <- l;
            incr nlearnt;
            if st.level.(x) > !btlevel then btlevel := st.level.(x)
          end
        end
        else if st.var_tainted.(x) then
          (* dropped level-0 literal whose truth rests on a bound row:
             the clause inherits the dependency *)
          tainted := true
      end
    in
    let absorb_subset ~before_pos ~extra =
      let cut = expensive_cut st ~before_pos ~extra in
      for i = cut - 1 downto 0 do
        let y = st.by_cost.(i) in
        if expensive_eligible st before_pos y then
          absorb (lit_of y (cheap_value st y))
      done
    in
    (if conflict_reason = reason_bound then begin
       (* the assignment that tripped the bound is the newest trail entry
          and must appear in the clause so that analysis has a literal at
          the current decision level *)
       let cut = expensive_cut st ~before_pos:max_int ~extra:0. in
       (if st.trail_size > 0 then
          let x = st.trail.(st.trail_size - 1) in
          let rec in_subset i =
            i < cut && (st.by_cost.(i) = x || in_subset (i + 1))
          in
          if expensivep st x && not (in_subset 0) then
            absorb (lit_of x (cheap_value st x)));
       absorb_subset ~before_pos:max_int ~extra:0.
     end
     else begin
       let lits = st.lits.(conflict_reason) in
       for i = 0 to Array.length lits - 1 do
         let l = lits.(i) in
         let v = st.value.(l lsr 1) in
         if v >= 0 && v <> l land 1 then absorb l
       done
     end);
    let finish () =
      for i = 0 to !nlearnt - 1 do
        st.seen.(st.learnt.(i) lsr 1) <- false
      done
    in
    if !counter = 0 then begin
      (* conflict independent of the current level: only level-0 facts are
         involved, nothing to learn *)
      finish ();
      None
    end
    else begin
      let idx = ref (st.trail_size - 1) in
      let asserting = ref (-1) in
      while !asserting < 0 do
        (* find the most recent marked trail entry *)
        while not st.seen.(st.trail.(!idx)) do decr idx done;
        let x = st.trail.(!idx) in
        st.seen.(x) <- false;
        decr counter;
        if !counter = 0 then asserting := lit_of x (1 - st.value.(x))
        else begin
          let r = st.reason.(x) in
          if reason_taints st r then tainted := true;
          (* the clausal reason of x, minus x itself *)
          let my_pos = st.trail_pos.(x) in
          if r = reason_bound then
            absorb_subset ~before_pos:my_pos ~extra:(Float.abs st.obj.(x))
          else begin
            (* the reason row participates in the conflict being analyzed *)
            note_activity st Row_stats.bump_conflict r;
            let lits = st.lits.(r) in
            for i = 0 to Array.length lits - 1 do
              let l = lits.(i) in
              let y = l lsr 1 in
              let v = st.value.(y) in
              if y <> x && v >= 0 && st.trail_pos.(y) < my_pos && v <> l land 1
              then absorb l
            done
          end;
          decr idx
        end
      done;
      finish ();
      st.var_inc <- st.var_inc *. 1.05;
      (* a conflict clause with no lower-level literals asserts at 0 *)
      let n = !nlearnt in
      let clause = Array.make (n + 1) !asserting in
      for i = 0 to n - 1 do
        clause.(i + 1) <- st.learnt.(n - 1 - i)
      done;
      Some (clause, !btlevel, !tainted)
    end
  end

let learn_clause st ~tainted lits =
  (* second watch on the highest-level literal, the first to be unassigned
     by a later backjump; slot 0 holds the asserting literal *)
  let n = Array.length lits in
  let level i = st.level.(lits.(i) lsr 1) in
  let hi = ref 1 in
  for i = 2 to n - 1 do
    if level i > level !hi then hi := i
  done;
  if !hi < n then begin
    let l = lits.(1) in
    lits.(1) <- lits.(!hi);
    lits.(!hi) <- l
  end;
  let row =
    { lits; coefs = Array.make (Array.length lits) 1.; bound = 1.; tol = 1e-9 }
  in
  st.n_learned_total <- st.n_learned_total + 1;
  add_con ~kind:Klearned ~tainted st row

(* Rebuild occurrence arrays, slack counters and watches from scratch
   under the current assignment (after any constraint-database compaction;
   decision level 0 only).  A learned clause's non-false literals move to
   its watched slots, so one left with a single such literal is unit and
   {!enqueue_row} queues it. *)
let rebuild_index st =
  Array.fill st.occ_n 0 (Array.length st.occ_n) 0;
  Array.fill st.watch_n 0 (Array.length st.watch_n) 0;
  for ci = 0 to st.ncons - 1 do
    if st.ckind.(ci) = Klearned then begin
      let c = st.lits.(ci) in
      let slot = ref 0 in
      for i = 0 to Array.length c - 1 do
        if !slot < 2 && not (lit_false st c.(i)) then begin
          let l = c.(i) in
          c.(i) <- c.(!slot);
          c.(!slot) <- l;
          incr slot
        end
      done;
      watch_clause st ci
    end
    else index_row st ci
  done

(* Learned-clause database reduction (call at decision level 0 only):
   drop the older half of the learned clauses, keeping short ones and
   every clause that is the recorded reason of a trail literal (pinned —
   resetting those reasons to decisions would blind 1-UIP analysis to
   their derivations and, across session solves, orphan taint tracking).
   Surviving rows keep their identity through an index remap. *)
let reduce_db st =
  let locked = Array.make (max st.ncons 1) false in
  for i = 0 to st.trail_size - 1 do
    let r = st.reason.(st.trail.(i)) in
    if r >= 0 then locked.(r) <- true
  done;
  let total_learned = st.n_learned in
  let learned_seen = ref 0 in
  let remap = Array.make (max st.ncons 1) (-1) in
  let ncons' = ref 0 in
  let kept_learned = ref 0 in
  for ci = 0 to st.ncons - 1 do
    let keep =
      if st.ckind.(ci) <> Klearned then true
      else begin
        incr learned_seen;
        let recent = !learned_seen > total_learned / 2 in
        let short = Array.length st.lits.(ci) <= 2 in
        if recent || short || locked.(ci) then begin
          incr kept_learned;
          true
        end
        else false
      end
    in
    if keep then begin
      move_row st ~src:ci ~dst:!ncons';
      remap.(ci) <- !ncons';
      incr ncons'
    end
  done;
  st.ncons <- !ncons';
  st.n_learned <- !kept_learned;
  (* remap trail reasons through the compaction (locked rows survived) *)
  for i = 0 to st.trail_size - 1 do
    let x = st.trail.(i) in
    let r = st.reason.(x) in
    if r >= 0 then st.reason.(x) <- remap.(r)
  done;
  rebuild_index st

(* ------------------------------------------------------------------ *)
(* Search                                                              *)

(* Returns false when the complete assignment does not improve on the
   incumbent — numerically possible despite the bound row, and a signal to
   stop rather than loop. *)
let record_incumbent st =
  let cost = cost_lb st in
  let improves =
    match st.best with None -> true | Some (c, _) -> cost < c -. obj_tol st
  in
  if improves then begin
    st.best <-
      Some (cost, Array.map (fun v -> float_of_int (max 0 v)) st.value);
    (* binding-at-incumbent: the assignment is complete here, so [sure] is
       the achieved LHS of every row — tight rows shape the incumbent *)
    match st.row_stats with
    | None -> ()
    | Some rs ->
        for ci = 0 to st.ncons - 1 do
          if
            st.origin.(ci) >= 0
            && Float.abs (st.sure.(ci) -. st.bound.(ci)) <= st.tol.(ci)
          then Row_stats.bump_binding rs st.origin.(ci)
        done
  end;
  improves

let improvement_gap st best =
  if st.obj_integral then 1. -. 1e-6
  else 1e-7 *. Float.max 1. (Float.abs best)

(* When every objective coefficient is integral the next incumbent must be
   at least 1 better: encode the bound row accordingly. *)
let bound_row st =
  match st.best with
  | None -> None
  | Some (best, _) ->
      (* Σ obj·x ≤ best - const - gap *)
      let terms =
        Array.to_list st.by_cost |> List.map (fun x -> (x, st.obj.(x)))
      in
      let gap = improvement_gap st best in
      let rhs = best -. st.obj_const -. gap in
      match normalize_row (Lin_expr.of_terms terms) Model.Le rhs with
      | [ row ] -> Some row
      | [] -> None (* nothing can beat the incumbent: exhausted *)
      | _ :: _ :: _ -> assert false
      | exception Trivially_infeasible ->
          None (* bound unreachable even with every literal true *)

exception Exhausted
exception Limits

(* Luby sequence 1,1,2,1,1,2,4,… (1-based). *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do incr k done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - (1 lsl (!k - 1)) + 1)

let search st ~metrics ~on_event ~log ~max_decisions ~time_limit
    ~lower_bound ~should_stop ~shared ~first_solution =
  let t0 = Archex_obs.Clock.now () in
  (* limits are per invocation: counters are session-cumulative *)
  let dec0 = st.n_decisions and conf0 = st.n_conflicts in
  (* progress events: build nothing unless a callback is installed *)
  let emit kind data =
    match on_event with
    | None -> ()
    | Some f ->
        f
          { Archex_obs.Event.source = "pb";
            kind;
            elapsed = Archex_obs.Clock.now () -. t0;
            data = data () }
  in
  (* structured search log: one record per branch decision / conflict /
     incumbent / bound move / restart; nothing is built without a sink *)
  let slog fields =
    match log with
    | None -> ()
    | Some sink ->
        let module J = Archex_obs.Json in
        sink
          (J.Obj
             (("t", J.Num (Archex_obs.Clock.now () -. t0)) :: fields ()))
  in
  let module J = Archex_obs.Json in
  (* Best proven objective lower bound: starts at the caller's
     combinatorial bound and improves with the level-0 cost floor (valid
     for any solution still able to beat the incumbent, the usual
     best-bound semantics of branch-and-bound). *)
  let global_lb = ref lower_bound in
  let emitted_lb = ref neg_infinity in
  let with_best base =
    match st.best with
    | Some (c, _) -> ("incumbent", c) :: base
    | None -> base
  in
  let with_bound base =
    if Float.is_finite !global_lb then ("bound", !global_lb) :: base
    else base
  in
  let emit_bound () =
    if Float.is_finite !global_lb && !global_lb > !emitted_lb +. 1e-12 then begin
      emitted_lb := !global_lb;
      emit Archex_obs.Event.Bound (fun () ->
          with_best
            [ ("bound", !global_lb);
              ("conflicts", float_of_int st.n_conflicts) ]);
      slog (fun () ->
          [ ("ev", J.Str "bound");
            ("bound", J.Num !global_lb);
            ("conflicts", J.Num (float_of_int st.n_conflicts)) ])
    end
  in
  (* call at decision level 0, where cost_lb is a global fact *)
  let update_global_lb () =
    let lb = cost_lb st in
    if lb > !global_lb then global_lb := lb;
    emit_bound ()
  in
  let heartbeat () =
    emit Archex_obs.Event.Heartbeat (fun () ->
        let base =
          [ ("decisions", float_of_int st.n_decisions);
            ("conflicts", float_of_int st.n_conflicts);
            ("propagations", float_of_int st.n_propagations);
            ("learned", float_of_int st.n_learned);
            ("level", float_of_int st.dlevel) ]
        in
        with_best (with_bound base))
  in
  let ticks = ref 0 in
  let check_limits () =
    if
      st.n_decisions - dec0 > max_decisions
      || st.n_conflicts - conf0 > max_decisions
    then raise Limits;
    incr ticks;
    if on_event <> None && !ticks land 8191 = 0 then heartbeat ();
    (match should_stop with
    | Some stop when !ticks land 63 = 0 && stop () -> raise Limits
    | _ -> ());
    if !ticks land 255 = 0 then
      match time_limit with
      | Some tl when Archex_obs.Clock.now () -. t0 > tl -> raise Limits
      | _ -> ()
  in
  let by_cost_cursor = ref 0 in
  let handle_conflict reason =
    st.n_conflicts <- st.n_conflicts + 1;
    note_activity st Row_stats.bump_conflict reason;
    check_limits ();
    st.conflicts_until_restart <- st.conflicts_until_restart - 1;
    let kind = if reason = reason_bound then "bound" else "row" in
    let level = st.dlevel in
    match analyze st reason with
    | None ->
        slog (fun () ->
            [ ("ev", J.Str "conflict");
              ("kind", J.Str kind);
              ("level", J.Num (float_of_int level));
              ("exhausted", J.Bool true) ]);
        raise Exhausted
    | Some (lits, btlevel, tainted) ->
        slog (fun () ->
            [ ("ev", J.Str "conflict");
              ("kind", J.Str kind);
              ("level", J.Num (float_of_int level));
              ("backjump", J.Num (float_of_int btlevel));
              ("learned_lits", J.Num (float_of_int (Array.length lits))) ]);
        backtrack_to_level st btlevel;
        by_cost_cursor := 0;
        let ci = learn_clause st ~tainted lits in
        (* assert the UIP literal *)
        push_pending st lits.(0) ci
  in
  let rec propagate_fully () =
    match propagate st with
    | () -> ()
    | exception Conflict reason ->
        handle_conflict reason;
        propagate_fully ()
  in
  (* After st.best improved: constrain the search to strictly better
     solutions, or conclude the incumbent is optimal. *)
  let add_bound_row_or_exhaust () =
    match bound_row st with
    | Some row ->
        backtrack_to_level st 0;
        by_cost_cursor := 0;
        let ci = add_con ~kind:Kbound st row in
        (* the new bound may already be conflicting at level 0 *)
        if row_violated st ci then raise Exhausted;
        clear_pending st;
        enqueue_implications st ci;
        propagate_fully ();
        update_global_lb ()
    | None -> raise Exhausted
  in
  (* Portfolio mode: adopt a better incumbent published by a rival backend.
     Installing it through the same bound-row path as a local incumbent
     keeps the Exhausted ⇒ Optimal conclusion sound — the search then only
     looks for strictly better solutions, so exhaustion proves the adopted
     incumbent optimal. *)
  let poll_shared () =
    match shared with
    | None -> ()
    | Some cell -> (
        match Archex_parallel.Shared_best.get_timed cell with
        | Some (c, sol, published_at)
          when (match st.best with
               | None -> true
               | Some (b, _) -> c < b -. obj_tol st) ->
            (* install latency: how long the rival's incumbent sat in the
               cell before this search started pruning with it *)
            Archex_obs.Metrics.observe
              (Archex_obs.Metrics.histogram metrics
                 "portfolio.install_seconds")
              (Archex_obs.Clock.now () -. published_at);
            st.best <- Some (c, sol);
            add_bound_row_or_exhaust ()
        | _ -> ())
  in
  let publish_incumbent () =
    match (shared, st.best) with
    | Some cell, Some (c, sol) ->
        ignore (Archex_parallel.Shared_best.publish cell c sol)
    | _ -> ()
  in
  let next_random () =
    (* Lehmer-style LCG, deterministic across runs *)
    st.rng <- (st.rng * 48271) land 0x3FFFFFFF;
    st.rng
  in
  let restart () =
    backtrack_to_level st 0;
    by_cost_cursor := 0;
    st.restart_sched <- st.restart_sched + 1;
    st.n_restarts <- st.n_restarts + 1;
    slog (fun () ->
        [ ("ev", J.Str "restart");
          ("restarts", J.Num (float_of_int st.n_restarts));
          ("conflicts", J.Num (float_of_int st.n_conflicts)) ]);
    st.conflicts_until_restart <- 100 * luby (st.restart_sched + 1);
    (* diversification: jitter a few saved phases so successive descents do
       not replay the same trapped trajectory *)
    let nvars = Array.length st.phase in
    let flips = 1 + (nvars / 20) in
    for _ = 1 to flips do
      let x = next_random () mod nvars in
      st.phase.(x) <- 1 - st.phase.(x)
    done;
    if st.n_learned > 2000 then begin
      reduce_db st;
      (* kept rows may propagate under the level-0 assignment *)
      for ci = 0 to st.ncons - 1 do
        enqueue_row st ci
      done;
      propagate_fully ()
    end;
    update_global_lb ()
  in
  (* Cost-bearing variables are decided first (largest coefficient first):
     with cheap-first phases this enumerates architectures by cost shape,
     and the incumbent bound prunes directly on those decisions.  Ties and
     the zero-cost remainder go to the activity heap. *)
  let rec pick_heap () =
    match Var_heap.pop_max st.heap with
    | None -> None
    | Some x -> if st.value.(x) < 0 then Some x else pick_heap ()
  in
  let rec pick_decision () =
    if !by_cost_cursor < Array.length st.by_cost then begin
      let x = st.by_cost.(!by_cost_cursor) in
      if st.value.(x) < 0 then Some x
      else begin
        incr by_cost_cursor;
        pick_decision ()
      end
    end
    else pick_heap ()
  in
  let finish hit_limit =
    ( hit_limit,
      if Float.is_finite !global_lb then Some !global_lb else None )
  in
  try
    propagate_fully ();
    update_global_lb ();
    while true do
      check_limits ();
      poll_shared ();
      if st.conflicts_until_restart <= 0 && st.dlevel > 0 then
        restart ();
      match pick_decision () with
      | None ->
          if not (record_incumbent st) then raise Exhausted;
          publish_incumbent ();
          emit Archex_obs.Event.Incumbent (fun () ->
              with_bound
                [ ( "incumbent",
                    match st.best with Some (c, _) -> c | None -> nan );
                  ("decisions", float_of_int st.n_decisions);
                  ("conflicts", float_of_int st.n_conflicts) ]);
          slog (fun () ->
              [ ("ev", J.Str "incumbent");
                ( "objective",
                  J.Num (match st.best with Some (c, _) -> c | None -> nan) );
                ("decisions", J.Num (float_of_int st.n_decisions));
                ("conflicts", J.Num (float_of_int st.n_conflicts)) ]);
          (* feasibility probes stop at the first solution *)
          if first_solution then raise Limits;
          (* a known objective lower bound proves optimality as soon as the
             incumbent cannot be beaten by the improvement gap *)
          (match st.best with
          | Some (best, _)
            when best -. improvement_gap st best
                 < lower_bound -. (1e-9 *. Float.max 1. (Float.abs best)) ->
              raise Exhausted
          | Some _ | None -> ());
          add_bound_row_or_exhaust ()
      | Some x ->
          st.n_decisions <- st.n_decisions + 1;
          new_decision_level st;
          slog (fun () ->
              [ ("ev", J.Str "decision");
                ("var", J.Num (float_of_int x));
                ("value", J.Num (float_of_int st.phase.(x)));
                ("level", J.Num (float_of_int st.dlevel)) ]);
          (match assign st x st.phase.(x) reason_decision with
          | () -> ()
          | exception Conflict reason -> handle_conflict reason);
          propagate_fully ()
    done;
    finish false
  with
  | Exhausted ->
      (* the search space is exhausted: any incumbent is proven optimal,
         so the lower bound closes onto it *)
      (match st.best with
      | Some (c, _) ->
          if c > !global_lb then global_lb := c;
          emit_bound ()
      | None -> ());
      finish false
  | Limits -> finish true

(* ------------------------------------------------------------------ *)
(* State construction and model synchronisation                         *)

let build_state ?row_stats m =
  if not (Model.is_pure_boolean m) then
    invalid_arg "Pb_solver: model has non-Boolean variables";
  let nvars = Model.var_count m in
  (* each con remembers the model row (insertion index) it came from; an
     Eq row normalizes into two cons sharing one origin *)
  let rows = ref [] in
  let row_index = ref (-1) in
  Model.iter_constraints m (fun r ->
      incr row_index;
      List.iter (fun c -> rows := (!row_index, c) :: !rows)
        (normalize_row r.expr r.cmp r.rhs));
  let rows = List.rev !rows in
  let obj = Array.make nvars 0. in
  List.iter (fun (x, a) -> obj.(x) <- a)
    (Lin_expr.terms (Model.objective m));
  let base_lb =
    Array.fold_left (fun acc c -> acc +. Float.min 0. c) 0. obj
  in
  let by_cost =
    List.init nvars Fun.id
    |> List.filter (fun x -> obj.(x) <> 0.)
    |> List.sort (fun a b ->
           Float.compare (Float.abs obj.(b)) (Float.abs obj.(a)))
    |> Array.of_list
  in
  let obj_integral =
    Array.for_all (fun c -> Float.abs (c -. Float.round c) < 1e-9) obj
    && Float.abs (Lin_expr.constant (Model.objective m)) < 1e18
  in
  let heap = Var_heap.create nvars in
  let st =
    { ncons = 0;
      lits = Array.make 16 [||];
      coefs = Array.make 16 [||];
      bound = Array.make 16 0.;
      tol = Array.make 16 0.;
      poss = Array.make 16 0.;
      sure = Array.make 16 0.;
      ckind = Array.make 16 Kmodel;
      ctainted = Array.make 16 false;
      origin = Array.make 16 (-1);
      n_learned = 0;
      n_learned_total = 0;
      row_stats;
      occ = Array.make (2 * nvars) [||];
      occ_coef = Array.make (2 * nvars) [||];
      occ_n = Array.make (2 * nvars) 0;
      watch = Array.make (2 * nvars) [||];
      watch_n = Array.make (2 * nvars) 0;
      value = Array.make nvars (-1);
      level = Array.make nvars 0;
      reason = Array.make nvars reason_decision;
      var_tainted = Array.make nvars false;
      trail_pos = Array.make nvars 0;
      trail = Array.make (max nvars 1) 0;
      trail_size = 0;
      trail_lim = Array.make (nvars + 1) 0;
      dlevel = 0;
      obj;
      obj_const = Lin_expr.constant (Model.objective m);
      base_lb;
      lb_extra = 0.;
      by_cost;
      obj_integral;
      pend_lit = Array.make 256 0;
      pend_reason = Array.make 256 0;
      pend_head = 0;
      pend_size = 0;
      heap;
      var_inc = 1.;
      phase = Array.init nvars (fun x -> if obj.(x) >= 0. then 0 else 1);
      best = None;
      n_decisions = 0;
      n_propagations = 0;
      n_conflicts = 0;
      n_restarts = 0;
      restart_sched = 0;
      conflicts_until_restart = 100 * luby 1;
      synced_rows = !row_index + 1;
      seen = Array.make nvars false;
      learnt = Array.make nvars 0;
      rng = 0x2545F49 }
  in
  (* register the rows through add_con so occurrences and slack counters
     are consistent *)
  List.iter (fun (origin, row) -> ignore (add_con ~origin st row)) rows;
  (* seed decision activities: objective weight dominates, participation
     breaks ties *)
  let max_obj =
    Array.fold_left (fun acc c -> Float.max acc (Float.abs c)) 1. obj
  in
  for x = 0 to nvars - 1 do
    let occ = float_of_int (st.occ_n.(2 * x) + st.occ_n.((2 * x) + 1)) in
    Var_heap.bump heap x
      ((4. *. Float.abs obj.(x) /. max_obj) +. (0.001 *. occ))
  done;
  st

(* Drop everything whose validity was relative to one solve's incumbent:
   bound rows, tainted learned clauses and tainted level-0 facts.  What
   survives — model rows, clean learned clauses, clean level-0 trail,
   activities, phases — is implied by the model alone and sound to reuse
   under any future objective bound. *)
let purge_volatile st =
  backtrack_to_level st 0;
  st.best <- None;
  let remap = Array.make (max st.ncons 1) (-1) in
  let ncons' = ref 0 in
  let kept_learned = ref 0 in
  for ci = 0 to st.ncons - 1 do
    let keep =
      match st.ckind.(ci) with
      | Kmodel -> true
      | Kbound -> false
      | Klearned -> not st.ctainted.(ci)
    in
    if keep then begin
      if st.ckind.(ci) = Klearned then incr kept_learned;
      move_row st ~src:ci ~dst:!ncons';
      remap.(ci) <- !ncons';
      incr ncons'
    end
  done;
  st.ncons <- !ncons';
  st.n_learned <- !kept_learned;
  (* filter the level-0 trail: volatile facts become unassigned again *)
  let old_size = st.trail_size in
  st.trail_size <- 0;
  for i = 0 to old_size - 1 do
    let x = st.trail.(i) in
    if st.var_tainted.(x) then begin
      st.value.(x) <- -1;
      st.var_tainted.(x) <- false;
      st.reason.(x) <- reason_decision;
      Var_heap.push st.heap x
    end
    else begin
      let r = st.reason.(x) in
      st.reason.(x) <-
        (if r >= 0 && remap.(r) >= 0 then remap.(r) else reason_decision);
      st.trail_pos.(x) <- st.trail_size;
      st.trail.(st.trail_size) <- x;
      st.trail_size <- st.trail_size + 1
    end
  done;
  (* the cost floor of the surviving assignment *)
  let lb = ref 0. in
  for x = 0 to Array.length st.value - 1 do
    if st.value.(x) >= 0 && expensivep st x then
      lb := !lb +. Float.abs st.obj.(x)
  done;
  st.lb_extra <- !lb;
  rebuild_index st

let grow_vars st n =
  let old = Array.length st.value in
  if n > old then begin
    let grow a fill =
      let b = Array.make n fill in
      Array.blit a 0 b 0 old;
      b
    in
    st.value <- grow st.value (-1);
    st.level <- grow st.level 0;
    st.reason <- grow st.reason reason_decision;
    st.var_tainted <- grow st.var_tainted false;
    st.trail_pos <- grow st.trail_pos 0;
    st.seen <- grow st.seen false;
    st.learnt <- grow st.learnt 0;
    st.phase <- grow st.phase 0;
    st.obj <- grow st.obj 0.;
    let grow_lits a fill =
      let b = Array.make (2 * n) fill in
      Array.blit a 0 b 0 (2 * old);
      b
    in
    st.occ <- grow_lits st.occ [||];
    st.occ_coef <- grow_lits st.occ_coef [||];
    st.occ_n <- grow_lits st.occ_n 0;
    st.watch <- grow_lits st.watch [||];
    st.watch_n <- grow_lits st.watch_n 0;
    let trail_lim = Array.make (n + 1) 0 in
    Array.blit st.trail_lim 0 trail_lim 0 (Array.length st.trail_lim);
    st.trail_lim <- trail_lim;
    let trail = Array.make (max n 1) 0 in
    Array.blit st.trail 0 trail 0 st.trail_size;
    st.trail <- trail
  end

let refresh_objective st m =
  let n = Array.length st.value in
  let obj = Array.make n 0. in
  List.iter (fun (x, a) -> obj.(x) <- a)
    (Lin_expr.terms (Model.objective m));
  st.obj <- obj;
  st.obj_const <- Lin_expr.constant (Model.objective m);
  st.base_lb <-
    Array.fold_left (fun acc c -> acc +. Float.min 0. c) 0. obj;
  st.by_cost <-
    List.init n Fun.id
    |> List.filter (fun x -> obj.(x) <> 0.)
    |> List.sort (fun a b ->
           Float.compare (Float.abs obj.(b)) (Float.abs obj.(a)))
    |> Array.of_list;
  st.obj_integral <-
    Array.for_all (fun c -> Float.abs (c -. Float.round c) < 1e-9) obj
    && Float.abs (Lin_expr.constant (Model.objective m)) < 1e18

(* Pull model growth (new vars, appended rows) into the live state.  A
   no-op when nothing changed, so the scratch path is untouched.  New rows
   are checked against the persistent level-0 assignment; a row already
   violated by those clean facts proves the model infeasible. *)
let sync st m =
  backtrack_to_level st 0;
  let old_n = Array.length st.value in
  let n = Model.var_count m in
  let old_rows = st.synced_rows in
  let total_rows = Model.constraint_count m in
  if n <> old_n || total_rows <> old_rows then begin
    grow_vars st n;
    refresh_objective st m;
    (* phases for new vars: cheap value first, like build_state *)
    for x = old_n to n - 1 do
      st.phase.(x) <- (if st.obj.(x) >= 0. then 0 else 1)
    done;
    (* register the appended rows *)
    let idx = ref (-1) in
    Model.iter_constraints m (fun r ->
        incr idx;
        if !idx >= old_rows then
          List.iter
            (fun row ->
              let ci = add_con ~origin:!idx st row in
              if row_violated st ci then raise Trivially_infeasible;
              enqueue_implications st ci)
            (normalize_row r.expr r.cmp r.rhs));
    st.synced_rows <- total_rows;
    (* warm heap restore: carried activities for old vars, build_state's
       seeding formula (scaled by the current var_inc) for new ones *)
    if n > old_n then begin
      let max_obj =
        Array.fold_left (fun acc c -> Float.max acc (Float.abs c)) 1. st.obj
      in
      let acts =
        Array.init n (fun x ->
            if x < old_n then Var_heap.activity st.heap x
            else
              let occ =
                float_of_int (st.occ_n.(2 * x) + st.occ_n.((2 * x) + 1))
              in
              st.var_inc
              *. ((4. *. Float.abs st.obj.(x) /. max_obj) +. (0.001 *. occ)))
      in
      st.heap <-
        Var_heap.of_activities ~mem:(fun v -> st.value.(v) < 0) acts
    end;
    (* objective data may have moved: recompute the assigned cost floor *)
    let lb = ref 0. in
    for x = 0 to n - 1 do
      if st.value.(x) >= 0 && expensivep st x then
        lb := !lb +. Float.abs st.obj.(x)
    done;
    st.lb_extra <- !lb
  end

exception Cap_unreachable

(* Feasibility-probe cap for the core-guided driver: Σ obj·x ≤ cap − const
   as a bound-kind row (volatile by construction).  Raises when no
   assignment can reach the cap. *)
let install_cap st cap =
  let terms =
    Array.to_list st.by_cost |> List.map (fun x -> (x, st.obj.(x)))
  in
  let rhs = cap -. st.obj_const in
  match normalize_row (Lin_expr.of_terms terms) Model.Le rhs with
  | [] -> () (* every assignment satisfies the cap *)
  | [ row ] ->
      let ci = add_con ~kind:Kbound st row in
      if row_violated st ci then raise Cap_unreachable;
      enqueue_implications st ci
  | _ :: _ :: _ -> assert false
  | exception Trivially_infeasible -> raise Cap_unreachable

(* Permanent objective floor Σ obj·x ≥ lb − const: the dual of the
   volatile incumbent bound rows.  A proven lower bound on the optimum
   only rises over a session's lifetime (the model only gains rows), so
   the floor is installed as a [Kmodel] row — it survives [purge_volatile],
   it propagates against descents into the already-refuted cheap region,
   and clauses learned from it are untainted and carry across solves.
   Raises [Trivially_infeasible] when no assignment reaches [lb] (a valid
   bound then proves the model has no feasible solutions at all). *)
let install_floor st lb =
  let terms =
    Array.to_list st.by_cost |> List.map (fun x -> (x, st.obj.(x)))
  in
  let rhs = lb -. st.obj_const in
  match normalize_row (Lin_expr.of_terms terms) Model.Ge rhs with
  | [] -> () (* every assignment clears the floor *)
  | [ row ] ->
      let ci = add_con ~kind:Kmodel st row in
      if row_violated st ci then raise Trivially_infeasible;
      enqueue_implications st ci
  | _ :: _ :: _ -> assert false

(* ------------------------------------------------------------------ *)
(* Sessions and entry points                                           *)

type session = {
  smodel : Model.t;
  mutable sstate : state option; (* None: infeasible at construction *)
  mutable fresh : bool;          (* no solve has run yet *)
  mutable dead : bool;           (* proven infeasible, permanently *)
  mutable carried : int;         (* learned rows carried into the last solve *)
  mutable last_bound : float option;
  mutable installed_lb : float;  (* strongest objective floor installed *)
  mutable n_solves : int;
}

let create_session ?rows m =
  match build_state ?row_stats:rows m with
  | st ->
      { smodel = m;
        sstate = Some st;
        fresh = true;
        dead = false;
        carried = 0;
        last_bound = None;
        installed_lb = neg_infinity;
        n_solves = 0 }
  | exception Trivially_infeasible ->
      { smodel = m;
        sstate = None;
        fresh = true;
        dead = true;
        carried = 0;
        last_bound = None;
        installed_lb = neg_infinity;
        n_solves = 0 }

let record_metrics metrics (stats : stats) =
  let module M = Archex_obs.Metrics in
  if M.enabled metrics then begin
    M.add (M.counter metrics "pb.decisions") (float_of_int stats.decisions);
    M.add
      (M.counter metrics "pb.propagations")
      (float_of_int stats.propagations);
    M.add (M.counter metrics "pb.conflicts") (float_of_int stats.conflicts);
    M.add (M.counter metrics "pb.restarts") (float_of_int stats.restarts);
    M.add (M.counter metrics "pb.learned") (float_of_int stats.learned)
  end

let session_solve ?(metrics = Archex_obs.Metrics.null) ?on_event ?log ?rows
    ?(max_decisions = max_int) ?time_limit ?(lower_bound = neg_infinity)
    ?should_stop ?shared ?(first_solution = false) ?objective_cap sess =
  sess.n_solves <- sess.n_solves + 1;
  match sess.sstate with
  | _ when sess.dead -> (Infeasible, zero_stats)
  | None -> (Infeasible, zero_stats)
  | Some st ->
      (match rows with Some rs -> st.row_stats <- Some rs | None -> ());
      (* fresh Luby schedule per invocation: a session deep in the carried
         sequence would wait hundreds of conflicts before its first
         restart, unable to exploit the rows this solve just gained
         (no-op on the fresh path, where both fields still hold their
         build_state values — scratch parity) *)
      st.restart_sched <- 0;
      st.conflicts_until_restart <- 100 * luby 1;
      (* per-invocation stats are deltas against session totals *)
      let d0 = st.n_decisions
      and p0 = st.n_propagations
      and c0 = st.n_conflicts
      and r0 = st.n_restarts
      and l0 = st.n_learned_total in
      let finish hit_limit bound =
        let stats =
          { decisions = st.n_decisions - d0;
            propagations = st.n_propagations - p0;
            conflicts = st.n_conflicts - c0;
            restarts = st.n_restarts - r0;
            learned = st.n_learned_total - l0;
            bound }
        in
        record_metrics metrics stats;
        sess.last_bound <- bound;
        let outcome =
          if hit_limit then Limit_reached { incumbent = st.best }
          else
            match st.best with
            | Some (objective, solution) -> Optimal { objective; solution }
            | None ->
                (* exhausted with no incumbent: under a cap this only rules
                   out the capped region; without one the model is dead *)
                if objective_cap = None then sess.dead <- true;
                Infeasible
        in
        (outcome, stats)
      in
      (match
         if sess.fresh then sync st sess.smodel
         else begin
           (* warm-start phases from the previous optimum, not from the
              end-of-proof trail the last exhaustion left behind: with
              cost-first decisions the first descent then reconstructs the
              cheapest known shape (minus whatever the new rows cut), so
              the first incumbent — and its bound row — lands near the old
              cost instead of an arbitrary expensive assignment *)
           (match st.best with
           | Some (_, sol) ->
               let n = min (Array.length st.phase) (Array.length sol) in
               for x = 0 to n - 1 do
                 st.phase.(x) <- (if sol.(x) >= 0.5 then 1 else 0)
               done
           | None -> ());
           purge_volatile st;
           sync st sess.smodel;
           (* carried rows were rebuilt under the surviving level-0 trail;
              replay their pending implications *)
           for ci = 0 to st.ncons - 1 do
             enqueue_row st ci
           done
         end
       with
      | () -> (
          sess.carried <- st.n_learned;
          let was_fresh = sess.fresh in
          sess.fresh <- false;
          match
            (* root-level fixings from the model bounds *)
            let nvars = Array.length st.value in
            for x = 0 to nvars - 1 do
              let lb = Model.lower_bound sess.smodel x
              and ub = Model.upper_bound sess.smodel x in
              if lb > 0.5 then assign st x 1 reason_decision
              else if ub < 0.5 then assign st x 0 reason_decision
            done;
            (* a strictly stronger proven bound becomes a permanent floor
               row; fresh solves skip it (scratch parity: a single-shot
               solve sees exactly the model it was given) *)
            (if
               (not was_fresh)
               && Float.is_finite lower_bound
               && lower_bound
                  > sess.installed_lb
                    +. (1e-9 *. Float.max 1. (Float.abs lower_bound))
             then begin
               install_floor st lower_bound;
               sess.installed_lb <- lower_bound
             end);
            (* the cap goes in after the fixings so that a conflict during
               fixing is attributable to the model, not the cap *)
            match objective_cap with
            | None -> ()
            | Some cap -> install_cap st cap
          with
          | () ->
              let hit_limit, bound =
                search st ~metrics ~on_event ~log ~max_decisions ~time_limit
                  ~lower_bound ~should_stop ~shared ~first_solution
              in
              finish hit_limit bound
          | exception Conflict _ ->
              (* fixings contradict the clean level-0 facts *)
              sess.dead <- true;
              finish false None
          | exception Trivially_infeasible ->
              (* no assignment reaches the proven floor: no feasible
                 solutions remain *)
              sess.dead <- true;
              finish false None
          | exception Cap_unreachable ->
              (* no assignment reaches the cap: infeasible UNDER THE CAP
                 only, so the session stays alive *)
              let _, stats = finish false None in
              (Infeasible, stats))
      | exception Trivially_infeasible ->
          sess.dead <- true;
          finish false None)

let session_sync sess =
  if not sess.dead then
    match sess.sstate with
    | None -> ()
    | Some st -> (
        try sync st sess.smodel
        with Trivially_infeasible -> sess.dead <- true)

let session_totals sess =
  match sess.sstate with
  | None -> zero_stats
  | Some st ->
      { decisions = st.n_decisions;
        propagations = st.n_propagations;
        conflicts = st.n_conflicts;
        restarts = st.n_restarts;
        learned = st.n_learned_total;
        bound = sess.last_bound }

module Session = struct
  type t = session

  let create = create_session
  let model s = s.smodel
  let add_rows = session_sync
  let solve = session_solve
  let totals = session_totals
  let solves s = s.n_solves
  let carried_learned s = s.carried
end

let solve ?metrics ?on_event ?log ?rows ?max_decisions ?time_limit
    ?lower_bound ?should_stop ?shared m =
  let sess = create_session ?rows m in
  session_solve ?metrics ?on_event ?log ?max_decisions ?time_limit
    ?lower_bound ?should_stop ?shared sess

(* ------------------------------------------------------------------ *)
(* Core-guided optimization (BCD2-style bound convergence)             *)

(* Instead of branch-and-bound's descend-and-tighten, converge lower and
   upper bounds by bisection: each probe asks "is there ANY solution of
   cost ≤ cap?" with a first-solution session solve under a cap row.  An
   UNSAT probe lifts the lower bound past the cap; a solution lowers the
   upper bound to its cost.  Untainted clauses learned during one probe
   carry into the next through the session, which is what makes the
   strategy competitive: the probes share a growing clause database. *)
let solve_core_guided ?(metrics = Archex_obs.Metrics.null) ?on_event ?log
    ?rows ?(max_decisions = max_int) ?time_limit
    ?(lower_bound = neg_infinity) ?should_stop ?shared m =
  let sess = create_session ?rows m in
  match sess.sstate with
  | None -> (Infeasible, zero_stats)
  | Some st ->
      let t0 = Archex_obs.Clock.now () in
      let deadline = Option.map (fun tl -> t0 +. tl) time_limit in
      let remaining () =
        Option.map
          (fun d -> Float.max 0.01 (d -. Archex_obs.Clock.now ()))
          deadline
      in
      let out_of_time () =
        match deadline with
        | None -> false
        | Some d -> Archex_obs.Clock.now () >= d
      in
      let stopped () =
        match should_stop with Some f -> f () | None -> false
      in
      let integral = st.obj_integral in
      let obj_const0 = st.obj_const in
      (* min conceivable cost: every coefficient at its cheap value *)
      let lb = ref (Float.max lower_bound (st.base_lb +. obj_const0)) in
      let ub = ref infinity in
      let best = ref None in
      let gap_at c =
        if integral then 1. -. 1e-6
        else 1e-7 *. Float.max 1. (Float.abs c)
      in
      let tot = ref zero_stats in
      let used_decisions = ref 0 in
      let add_stats (s : stats) =
        used_decisions := !used_decisions + max s.decisions s.conflicts;
        tot :=
          { decisions = !tot.decisions + s.decisions;
            propagations = !tot.propagations + s.propagations;
            conflicts = !tot.conflicts + s.conflicts;
            restarts = !tot.restarts + s.restarts;
            learned = !tot.learned + s.learned;
            bound = (if Float.is_finite !lb then Some !lb else None) }
      in
      let publish () =
        match (shared, !best) with
        | Some cell, Some (c, sol) ->
            ignore (Archex_parallel.Shared_best.publish cell c sol)
        | _ -> ()
      in
      (* Rival incumbents only move the upper bound between probes; probes
         themselves run unshared so that first-solution exhaustion keeps
         its cap-relative meaning. *)
      let poll () =
        match shared with
        | None -> ()
        | Some cell -> (
            match Archex_parallel.Shared_best.get_timed cell with
            | Some (c, sol, _)
              when (match !best with
                   | None -> true
                   | Some (b, _) ->
                       c < b -. (1e-9 *. Float.max 1. (Float.abs b))) ->
                best := Some (c, sol);
                if c < !ub then ub := c
            | _ -> ())
      in
      let probe_budget () =
        if max_decisions = max_int then max_int
        else max 1 (max_decisions - !used_decisions)
      in
      (* one feasibility probe; [`Found]/[`Empty]/[`Limit] *)
      let step ?objective_cap () =
        let outcome, stats =
          session_solve ~metrics ?on_event ?log
            ~max_decisions:(probe_budget ()) ?time_limit:(remaining ())
            ?should_stop ~first_solution:true ?objective_cap sess
        in
        add_stats stats;
        match outcome with
        | Optimal { objective; solution } | Limit_reached
            { incumbent = Some (objective, solution) } ->
            `Found (objective, solution)
        | Infeasible -> `Empty
        | Limit_reached { incumbent = None } -> `Limit
      in
      let final limit =
        let stats =
          { !tot with bound = (if Float.is_finite !lb then Some !lb else None) }
        in
        let outcome =
          if limit then Limit_reached { incumbent = !best }
          else
            match !best with
            | Some (objective, solution) ->
                if Float.is_finite !lb && objective > !lb then lb := objective;
                Optimal
                  { objective;
                    solution }
            | None -> Infeasible
        in
        ( outcome,
          { stats with
            bound = (if Float.is_finite !lb then Some !lb else None) } )
      in
      (* initial upper bound: any feasible solution *)
      (match step () with
      | `Empty -> final false (* model infeasible *)
      | `Limit -> final true
      | `Found (c, sol) ->
          best := Some (c, sol);
          ub := c;
          publish ();
          let limit = ref false in
          while
            (not !limit)
            && !ub -. !lb > gap_at !ub
            && (not (out_of_time ()))
            && (not (stopped ()))
            && !used_decisions < max_decisions
          do
            poll ();
            if !ub -. !lb <= gap_at !ub then ()
            else begin
              let mid = (!lb +. !ub) /. 2. in
              let cap =
                if integral then
                  obj_const0 +. Float.of_int
                    (int_of_float (Float.floor (mid -. obj_const0 +. 1e-9)))
                else mid
              in
              (* progress needs lb ≤ cap ≤ ub − gap *)
              let cap = Float.min cap (!ub -. gap_at !ub) in
              let cap = Float.max cap !lb in
              match step ~objective_cap:cap () with
              | `Found (c, sol) ->
                  if c < !ub then begin
                    ub := c;
                    best := Some (c, sol);
                    publish ()
                  end
                  else
                    (* cap ≤ ub − gap makes this unreachable; bail rather
                       than loop if numerics disagree *)
                    limit := true
              | `Empty ->
                  (* no solution of cost ≤ cap: lift the floor past it *)
                  lb :=
                    (if integral then cap +. 1.
                     else cap +. (1e-9 *. Float.max 1. (Float.abs cap)))
              | `Limit -> limit := true
            end
          done;
          if !limit || out_of_time () || stopped () then final true
          else begin
            (* bounds met: the incumbent is optimal *)
            (match !best with
            | Some (c, _) when !lb < c -. gap_at c -> lb := c -. gap_at c
            | _ -> ());
            final false
          end)
