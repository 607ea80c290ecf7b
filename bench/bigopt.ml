(* The large-pattern optimizer tiers, gated.

   Seven deterministic gates:

   1. Cost equality — on every generated pattern of <= 12 nodes (all
      four shape classes), the exact subset DP's estimated cost equals
      DPP's bit for bit, and on <= 10 nodes DP's; the BigDP beam equals
      DP's bit for bit on <= 10 nodes.  DP and DPP run directly on a
      search context: through the optimizer they would re-tier onto the
      subset DP.
   2. Sub-second at 30 — every 30-node beam cell optimizes in under one
      second of wall clock.
   3. DP infeasibility — exhaustive DP is timed on a ladder of growing
      star patterns (each rung under a deadline budget); a least-squares
      exponential fit extrapolates DP's 30-node time, which must exceed
      60 seconds.  The measured ladder and the extrapolation are
      recorded in the report.
   4. Deterministic work — running every scaling cell twice yields
      identical Work.expansions / Work.plans_considered and identical
      estimated cost.
   5. Exact tier pinned — the exact subset DP's Work.expansions /
      Work.plans_considered on the 8-16-node cells equal pinned values
      (work, not seconds).
   6. Table 2 exact — the paper-scale plan counters under the default
      engine stay 520/226/163/69/42/18.
   7. Non-empty work on every beam cell.

   The generator seed is fixed at 42.  Appends a "bigopt" perf-history
   datapoint.

   Run with: dune exec bench/main.exe bigopt *)

module Optimizer = Sjos_core.Optimizer
module Bigdp = Sjos_core.Bigdp
module Search = Sjos_core.Search
module Shapes = Sjos_pattern.Shapes
module Costing = Sjos_plan.Costing
module Work = Sjos_obs.Work
module Json = Sjos_obs.Json

let seed = 42

(* The deterministic synthetic provider shared with test_bigopt: a pure
   function of the node index / cluster mask, spread over three orders
   of magnitude, no document required. *)
let synth_provider =
  {
    Costing.node_card = (fun i -> float_of_int (10 + (i * 37 mod 91)));
    cluster_card =
      (fun m ->
        let h = (m * 2654435761) land 0xFFFF in
        float_of_int (1 + (h mod 1000)));
  }

let optimize algo p = Optimizer.optimize ~provider:synth_provider algo p

(* ---------- gate 1: cost equality on small patterns ---------- *)

type diff_row = {
  d_shape : string;
  d_nodes : int;
  d_tier : string;
  d_oracle : string;
  d_oracle_cost : float;
  d_cost : float;
}

let diff_ok r = Int64.bits_of_float r.d_oracle_cost = Int64.bits_of_float r.d_cost

(* a status search run as asked, priced by the optimizer's tally *)
let oracle run p =
  let ctx = Search.make_ctx ~provider:synth_provider p in
  Search.plan_cost ctx (snd (run ctx))

let differential () =
  List.concat_map
    (fun shape ->
      List.concat_map
        (fun nodes ->
          let p = Shapes.generate ~seed ~nodes shape in
          let row tier oracle_name oracle_cost =
            {
              d_shape = Shapes.gen_shape_name shape;
              d_nodes = nodes;
              d_tier = Optimizer.name tier;
              d_oracle = oracle_name;
              d_oracle_cost = oracle_cost;
              d_cost = (optimize tier p).Optimizer.est_cost;
            }
          in
          let dpp = oracle (fun ctx -> Sjos_core.Dpp.run ctx) p in
          row Optimizer.Subset_dp "DPP" dpp
          ::
          (if nodes > 10 then []
           else
             let dp = oracle Sjos_core.Dp.run p in
             [
               row Optimizer.Subset_dp "DP" dp;
               row (Optimizer.Big_dp Bigdp.default_width) "DP" dp;
             ]))
        [ 4; 5; 6; 7; 8; 9; 10; 11; 12 ])
    Shapes.all_gen_shapes

(* ---------- gates 2 and 4: scaling cells, timed and repeated ------- *)

type scale_row = {
  s_shape : string;
  s_nodes : int;
  s_cost : float;
  s_seconds : float;
  s_work : Work.t;
  s_expanded : int;
  s_considered : int;
  s_deterministic : bool;
}

let scale_cell algo shape nodes =
  let p = Shapes.generate ~seed ~nodes shape in
  let run () =
    let t0 = Sjos_obs.Clock.now_ns () in
    let work, outcome = Work.scoped (fun () -> optimize algo p) in
    let seconds = Sjos_obs.Clock.elapsed_seconds ~since:t0 in
    match outcome with Ok r -> (work, r, seconds) | Error e -> raise e
  in
  let w1, r1, s1 = run () in
  let w2, r2, _ = run () in
  {
    s_shape = Shapes.gen_shape_name shape;
    s_nodes = nodes;
    s_cost = r1.Optimizer.est_cost;
    s_seconds = s1;
    s_work = w1;
    s_expanded = r1.Optimizer.statuses_expanded;
    s_considered = r1.Optimizer.plans_considered;
    s_deterministic =
      w1.Work.expansions = w2.Work.expansions
      && w1.Work.plans_considered = w2.Work.plans_considered
      && r1.Optimizer.est_cost = r2.Optimizer.est_cost;
  }

let scaling () =
  List.concat_map
    (fun shape ->
      List.map
        (scale_cell (Optimizer.Big_dp Bigdp.default_width) shape)
        [ 15; 25; 30; 40 ])
    Shapes.all_gen_shapes

let exact_scaling () =
  List.concat_map
    (fun shape ->
      List.map (scale_cell Optimizer.Subset_dp shape) [ 8; 10; 12; 14; 16 ])
    Shapes.all_gen_shapes

(* ---------- gate 5: the exact tier's work, pinned ---------- *)

(* (shape, nodes, Work.expansions, Work.plans_considered) of the exact
   subset DP at seed 42 under [synth_provider]: one expansion per
   connected mask of two or more nodes, one considered plan per memo
   candidate.  A diff is a change of the exact tier's enumeration. *)
let exact_pins =
  [
    ("chain", 8, 28, 190);
    ("chain", 10, 45, 368);
    ("chain", 12, 66, 633);
    ("chain", 14, 91, 1000);
    ("chain", 16, 120, 1481);
    ("star", 8, 73, 602);
    ("star", 10, 384, 3936);
    ("star", 12, 1153, 14340);
    ("star", 14, 4609, 66949);
    ("star", 16, 12291, 205309);
    ("balanced", 8, 43, 352);
    ("balanced", 10, 100, 1072);
    ("balanced", 12, 217, 2898);
    ("balanced", 14, 463, 7595);
    ("balanced", 16, 1008, 19615);
    ("mixed", 8, 48, 402);
    ("mixed", 10, 93, 965);
    ("mixed", 12, 121, 1463);
    ("mixed", 14, 586, 8968);
    ("mixed", 16, 1299, 25056);
  ]

let exact_pinned rows =
  List.length rows = List.length exact_pins
  && List.for_all2
       (fun r (shape, nodes, expansions, considered) ->
         r.s_shape = shape && r.s_nodes = nodes
         && r.s_work.Work.expansions = expansions
         && r.s_work.Work.plans_considered = considered)
       rows exact_pins

(* ---------- gate 3: DP's measured wall, extrapolated to 30 --------- *)

(* Time exhaustive DP on star patterns of growing width — the
   status-space's worst shape — each rung under a deadline so a
   too-steep rung is dropped rather than hanging the bench.  DP runs
   directly on a search context: past 7 nodes [Optimizer.optimize]
   would re-tier it onto the subset DP (which is the point of this
   bench). *)
let dp_ladder () =
  List.filter_map
    (fun nodes ->
      let p = Shapes.generate ~seed ~nodes Shapes.Star in
      let budget = Sjos_guard.Budget.make ~deadline_ms:5_000.0 () in
      let ctx = Search.make_ctx ~budget ~provider:synth_provider p in
      let t0 = Sjos_obs.Clock.now_ns () in
      match Sjos_core.Dp.run ctx with
      | _ -> Some (nodes, Sjos_obs.Clock.elapsed_seconds ~since:t0)
      | exception Sjos_guard.Budget.Exhausted _ -> None)
    [ 6; 7; 8; 9; 10; 11; 12 ]

(* least-squares fit of ln t = a + b*n over the rungs that took
   measurable time; DP's state space is exponential in n, so the
   log-linear fit is the honest extrapolation *)
let extrapolate_dp ladder ~target =
  let pts =
    List.filter_map
      (fun (n, t) -> if t > 1e-5 then Some (float_of_int n, log t) else None)
      ladder
  in
  match pts with
  | _ :: _ :: _ ->
      let m = float_of_int (List.length pts) in
      let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
      let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
      let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
      let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
      let b = ((m *. sxy) -. (sx *. sy)) /. ((m *. sxx) -. (sx *. sx)) in
      let a = (sy -. (b *. sx)) /. m in
      Some (exp (a +. (b *. float_of_int target)))
  | _ -> None

(* ---------- main ---------- *)

let run () =
  Printf.printf
    "large-pattern optimizer tiers: SubsetDP and BigDP(%d) vs DP/DPP (seed %d)\n"
    Bigdp.default_width seed;
  let diffs = differential () in
  let equal_small = List.for_all diff_ok diffs in
  Printf.printf "cost bit-equality <= 12 nodes: %s (%d cells)\n"
    (if equal_small then "exact" else "MISMATCH")
    (List.length diffs);
  let exact_rows = exact_scaling () in
  let pinned = exact_pinned exact_rows in
  Printf.printf "exact tier work %s\n"
    (if pinned then "matches its pins" else "DIFFERS from its pins");
  let rows = scaling () in
  Printf.printf "%-10s %6s | %12s %10s %10s %10s\n" "shape" "nodes" "cost"
    "seconds" "expanded" "considered";
  List.iter
    (fun r ->
      Printf.printf "%-10s %6d | %12.1f %10.4f %10d %10d%s\n" r.s_shape
        r.s_nodes r.s_cost r.s_seconds r.s_expanded r.s_considered
        (if r.s_deterministic then "" else "  !! NONDETERMINISTIC"))
    (exact_rows @ rows);
  let ladder = dp_ladder () in
  let extrapolated = extrapolate_dp ladder ~target:30 in
  List.iter
    (fun (n, t) -> Printf.printf "DP star n=%d: %.4fs\n" n t)
    ladder;
  (match extrapolated with
  | Some t -> Printf.printf "DP extrapolated to n=30: %.3e s\n" t
  | None -> Printf.printf "DP extrapolation: insufficient ladder\n");
  let diff_json r =
    Json.Obj
      [
        ("shape", Json.Str r.d_shape);
        ("nodes", Json.Int r.d_nodes);
        ("tier", Json.Str r.d_tier);
        ("oracle", Json.Str r.d_oracle);
        ("oracle_cost", Json.Float r.d_oracle_cost);
        ("cost", Json.Float r.d_cost);
        ("equal", Json.Bool (diff_ok r));
      ]
  in
  let scale_json r =
    Json.Obj
      [
        ("shape", Json.Str r.s_shape);
        ("nodes", Json.Int r.s_nodes);
        ("cost", Json.Float r.s_cost);
        ("seconds", Json.Float r.s_seconds);
        ("expanded", Json.Int r.s_expanded);
        ("considered", Json.Int r.s_considered);
        ("deterministic", Json.Bool r.s_deterministic);
      ]
  in
  let entries =
    List.map
      (fun r ->
        {
          Sjos_obs.Perf_history.entry_id =
            Printf.sprintf "bigopt:%s%d" r.s_shape r.s_nodes
            ^ if List.memq r exact_rows then ":exact" else "";
          work = r.s_work;
          allocated_bytes = 0.;
          seconds = r.s_seconds;
        })
      (exact_rows @ rows)
  in
  let meta =
    [ ("seed", Json.Int seed); ("width", Json.Int Bigdp.default_width) ]
  in
  let rows_30 = List.filter (fun r -> r.s_nodes = 30) rows in
  Harness.report ~file:"BENCH_BIGOPT.json"
    ~fields:
      (meta
      @ [
          ("differential", Json.List (List.map diff_json diffs));
          ("exact_scaling", Json.List (List.map scale_json exact_rows));
          ("scaling", Json.List (List.map scale_json rows));
          ( "dp_ladder",
            Json.List
              (List.map
                 (fun (n, t) ->
                   Json.Obj
                     [ ("nodes", Json.Int n); ("seconds", Json.Float t) ])
                 ladder) );
          ( "dp_extrapolated_seconds",
            match extrapolated with
            | Some t -> Json.Float t
            | None -> Json.Null );
        ])
    ~history:(meta, entries)
    [
      ("cost_equality_small", diffs <> [] && equal_small);
      ( "subsecond_at_30",
        rows_30 <> [] && List.for_all (fun r -> r.s_seconds < 1.0) rows_30 );
      ( "deterministic_work",
        List.for_all (fun r -> r.s_deterministic) (exact_rows @ rows) );
      ("exact_tier_pinned", pinned);
      ( "dp_infeasible_at_30",
        match extrapolated with Some t -> t > 60.0 | None -> false );
      ("table2_exact", Harness.table2_exact ());
      ( "nonempty_work",
        rows <> []
        && List.for_all (fun r -> r.s_expanded > 0 && r.s_considered > 0) rows
      );
    ]
