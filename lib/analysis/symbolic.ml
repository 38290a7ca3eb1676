module Atbl = Hashtbl.Make (struct
  type t = Affine.t

  let equal = Affine.equal
  let hash = Affine.hash
end)

(* Fact sets, keyed in canonical (sorted) order. *)
module Ftbl = Hashtbl.Make (struct
  type t = Affine.t list

  let equal = List.equal Affine.equal
  let hash = List.fold_left (fun h a -> ((h * 31) + Affine.hash a) land max_int) 0
end)

(* Answers per fact set, and how many the tables hold in all. *)
type memo = { sets : bool Atbl.t Ftbl.t; mutable size : int }

type t = {
  facts : Affine.t list;
  memo : memo option;
  mutable answers : bool Atbl.t option;
      (** this fact set's table in [memo], looked up on first query *)
}

let empty = { facts = []; memo = None; answers = None }
let create_memo () = { sets = Ftbl.create 64; size = 0 }
let with_memo memo t = { facts = t.facts; memo = Some memo; answers = None }

let add_fact t f =
  match Affine.is_const f with
  | Some c ->
      if c < 0 then
        invalid_arg "Symbolic: assuming a false constant fact";
      t
  | None ->
      if List.exists (Affine.equal f) t.facts then t
      else { facts = f :: t.facts; memo = t.memo; answers = None }

let assume_nonneg t f = add_fact t f
let assume_ge t a b = add_fact t (Affine.sub a b)
let assume_le t a b = add_fact t (Affine.sub b a)
let assume_pos t v = add_fact t (Affine.sub (Affine.var v) (Affine.const 1))

(* ---- One-sided affine bounds of loop-bound expressions ------------ *)

(* [cases_of e] computes disjunctive one-sided bound information for an
   arbitrary bound expression: a pair (lower, upper) of CASE LISTS.  The
   execution satisfies at least one case on each side; within a case,
   [e] is >= every affine form listed (lower side) resp. <= every one
   (upper side).  MIN/MAX are where the two sides differ:

     e <= MIN(a, b)  gives  e <= a AND e <= b        (conjunctive)
     e >= MIN(a, b)  gives  e >= a  OR e >= b        (case split)

   and dually for MAX.  [+], [-] and scaling by a constant compose
   bounds pairwise; anything else (Idx, Div, variable products) yields
   the single no-information case [[]]. *)

let max_cases = 16

let dedup_affs l =
  List.fold_left
    (fun acc a -> if List.exists (Affine.equal a) acc then acc else a :: acc)
    [] l
  |> List.rev

let same_case c1 c2 =
  List.length c1 = List.length c2
  && List.for_all (fun a -> List.exists (Affine.equal a) c2) c1

let dedup_cases cs =
  List.fold_left
    (fun acc c -> if List.exists (same_case c) acc then acc else c :: acc)
    [] cs
  |> List.rev

(* Bounds valid in EVERY case: the sound conjunctive core. *)
let intersect_cases = function
  | [] -> []
  | c :: rest ->
      List.filter (fun a -> List.for_all (List.exists (Affine.equal a)) rest) c

let trim cs =
  let cs = dedup_cases cs in
  if List.length cs <= max_cases then cs else [ intersect_cases cs ]

(* Both case-sets hold: cross product, unioning the bound lists. *)
let conj_merge cs1 cs2 =
  List.concat_map
    (fun c1 -> List.map (fun c2 -> dedup_affs (c1 @ c2)) cs2)
    cs1

(* Pairwise arithmetic on bounds, case-wise. *)
let combine2 f cs1 cs2 =
  List.concat_map
    (fun c1 ->
      List.map
        (fun c2 ->
          dedup_affs (List.concat_map (fun x -> List.map (f x) c2) c1))
        cs2)
    cs1

let rec cases_of (e : Expr.t) : Affine.t list list * Affine.t list list =
  match Affine.of_expr e with
  | Some a -> ([ [ a ] ], [ [ a ] ])
  | None -> (
      match e with
      | Expr.Min (a, b) ->
          let la, ua = cases_of a and lb, ub = cases_of b in
          (trim (la @ lb), trim (conj_merge ua ub))
      | Expr.Max (a, b) ->
          let la, ua = cases_of a and lb, ub = cases_of b in
          (trim (conj_merge la lb), trim (ua @ ub))
      | Expr.Bin (Expr.Add, a, b) ->
          let la, ua = cases_of a and lb, ub = cases_of b in
          (trim (combine2 Affine.add la lb), trim (combine2 Affine.add ua ub))
      | Expr.Bin (Expr.Sub, a, b) ->
          let la, ua = cases_of a and lb, ub = cases_of b in
          (trim (combine2 Affine.sub la ub), trim (combine2 Affine.sub ua lb))
      | Expr.Bin (Expr.Mul, Expr.Int c, a) | Expr.Bin (Expr.Mul, a, Expr.Int c)
        ->
          let la, ua = cases_of a in
          let s = List.map (List.map (Affine.scale c)) in
          if c >= 0 then (trim (s la), trim (s ua))
          else (trim (s ua), trim (s la))
      | _ -> ([ [] ], [ [] ]))

let loop_facts ~lo_bounds ~hi_bounds ctx (l : Stmt.loop) =
  let idx = Affine.var l.index in
  let ctx = List.fold_left (fun c b -> assume_ge c idx b) ctx lo_bounds in
  let ctx = List.fold_left (fun c b -> assume_le c idx b) ctx hi_bounds in
  match (Affine.of_expr l.lo, Affine.of_expr l.hi) with
  | Some lo, Some hi -> assume_ge ctx hi lo
  | _ -> ctx

let with_loops init loops =
  List.fold_left
    (fun ctx (l : Stmt.loop) ->
      let lo_cases, _ = cases_of l.lo in
      let _, hi_cases = cases_of l.hi in
      loop_facts ~lo_bounds:(intersect_cases lo_cases)
        ~hi_bounds:(intersect_cases hi_cases) ctx l)
    init loops

let with_loops_cases init loops =
  let step ctxs (l : Stmt.loop) =
    let lo_cases, _ = cases_of l.lo in
    let _, hi_cases = cases_of l.hi in
    let expanded =
      List.concat_map
        (fun ctx ->
          List.concat_map
            (fun lc ->
              List.map
                (fun hc -> loop_facts ~lo_bounds:lc ~hi_bounds:hc ctx l)
                hi_cases)
            lo_cases)
        ctxs
    in
    if List.length expanded > max_cases then
      (* Too many alternatives: keep only the conjunctive core so the
         case count stays bounded (dropping a case would be unsound). *)
      List.map
        (fun ctx ->
          loop_facts ~lo_bounds:(intersect_cases lo_cases)
            ~hi_bounds:(intersect_cases hi_cases) ctx l)
        ctxs
    else expanded
  in
  List.fold_left step [ init ] loops

let of_loop_context loops = with_loops empty loops

(* Prove [e >= 0] by searching for a representation
   [e = c + sum(lambda_i * f_i)] with [c >= 0] and positive integer
   multipliers.  The search is variable-directed: it picks the first
   variable with a nonzero coefficient and considers only facts whose
   coefficient on that variable has the same sign (so subtraction
   reduces it), scaling to cancel the variable completely when the
   coefficients divide.  Sound but incomplete.

   [go depth e] is a pure function of the fact SET (the order of the
   facts only orders the [exists]), the residual [e] and the depth
   budget, and it is monotone in the budget.  So the search memoizes at
   two scopes, neither of which can change an answer:
   - within one query, every residual that failed, with the largest
     budget it failed with; without it the search re-explores
     [e - f1 - f2] under every order of the facts ([e - f2 - f1] is the
     same residual);
   - across queries, the answer at the full budget, per canonical fact
     set, in a [memo] that every context holding that set shares.
   The residual table dies with its query: kept per fact set it saves
   few further nodes and holds on to every residual ever visited.  The
   search also drops, exactly, every residual with a variable no fact
   can reduce (see [stuck]). *)
let max_depth = 8

(* The [memo] starts over once it holds this many answers, so the
   memory a derivation's prover keeps stays flat. *)
let max_answers = 512

let search facts e =
  (* For each residual that failed, the largest budget it failed with
     (a success ends the whole search, so successes need no record). *)
  let failed = Atbl.create 64 in
  let by_var = Hashtbl.create 16 in
  (* The facts mentioning [v], with their coefficients on it. *)
  let facts_on v =
    match Hashtbl.find_opt by_var v with
    | Some fs -> fs
    | None ->
        let fs =
          List.filter_map
            (fun f -> match Affine.coeff f v with 0 -> None | c -> Some (c, f))
            facts
        in
        Hashtbl.add by_var v fs;
        fs
  in
  (* A variable no fact can reduce: no fact mentioning it has the same
     sign, so subtracting facts only moves its coefficient further from
     zero, and no residual below this one is a constant. *)
  let stuck v c = not (List.exists (fun (cf, _) -> cf * c > 0) (facts_on v)) in
  let rec go depth e =
    match Affine.lead e with
    | None -> Affine.constant e >= 0
    | Some (v, ce) ->
        depth > 0
        && (not (Affine.exists_term stuck e))
        && (match Atbl.find_opt failed e with Some d -> d < depth | None -> true)
        &&
        let r =
          List.exists
            (fun (cf, f) ->
              if cf * ce < 0 then false
              else
                let lam =
                  if ce mod cf = 0 && ce / cf > 0 then ce / cf
                  else if abs cf <= abs ce then 1
                  else 0
                in
                lam > 0 && go (depth - 1) (Affine.sub e (Affine.scale lam f)))
            (facts_on v)
        in
        if not r then Atbl.replace failed e depth;
        r
  in
  go max_depth e

let answers t memo =
  match t.answers with
  | Some table -> table
  | None ->
      let set = List.sort Affine.compare t.facts in
      let table =
        match Ftbl.find_opt memo.sets set with
        | Some table -> table
        | None ->
            let table = Atbl.create 8 in
            Ftbl.add memo.sets set table;
            table
      in
      t.answers <- Some table;
      table

(* Only a context with a memo is ever mutated: one without (like
   [empty] and every context grown from it) is safe to share between
   domains. *)
let prove_nonneg t e =
  match t.memo with
  | None -> search t.facts e
  | Some memo -> (
      let table = answers t memo in
      match Atbl.find_opt table e with
      | Some r -> r
      | None ->
          let r = search t.facts e in
          Atbl.add table e r;
          memo.size <- memo.size + 1;
          if memo.size >= max_answers then begin
            Ftbl.reset memo.sets;
            memo.size <- 0
          end;
          r)

let prove_ge t a b = prove_nonneg t (Affine.sub a b)
let prove_gt t a b = prove_nonneg t (Affine.sub (Affine.sub a b) (Affine.const 1))
let prove_le t a b = prove_ge t b a
let prove_lt t a b = prove_gt t b a
let prove_eq t a b = Affine.equal a b || (prove_ge t a b && prove_le t a b)

type order = Lt | Le | Eq | Ge | Gt | Unknown

let compare_ t a b =
  if prove_eq t a b then Eq
  else if prove_lt t a b then Lt
  else if prove_gt t a b then Gt
  else if prove_le t a b then Le
  else if prove_ge t a b then Ge
  else Unknown

let facts t = t.facts

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter (fun f -> Format.fprintf fmt "%s >= 0@ " (Affine.to_string f)) t.facts;
  Format.fprintf fmt "@]"
