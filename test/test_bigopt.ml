(* The large-pattern optimizer tier and the status-space fixes that ride
   with it:

   - Status.key regression: keys must separate statuses whose cluster
     partitions coincide but whose consumed-edge sets differ (the old
     [(mask, order) list] key collided them);
   - Pattern.max_nodes: oversized patterns are rejected structurally,
     never silently wrapped into a negative bitmask;
   - bit-identical effort counters after the popcount/cluster-map
     rework, pinned on the paper's Pers.3.d query;
   - subset DP differential: cost-bit equality of the exact tier with
     DPP on every generated pattern <= 12 nodes and with DP <= 10, and
     of the beam with DP <= 10, across the generator's four shape
     classes (seed via SJOS_BIGOPT_SEED, default 42);
   - budget truncation degrades structurally (Ok + degraded_from),
     never crashes;
   - generator shape invariants and determinism;
   - the three-tier automatic tiering, end to end through Database;
   - the exact mode where the beam is not exact, and the exact tier's
     effort counters pinned. *)

open Sjos_xml
open Sjos_storage
open Sjos_pattern
open Sjos_plan
open Sjos_core
open Sjos_engine

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cs = Alcotest.string

let seed =
  match Sys.getenv_opt "SJOS_BIGOPT_SEED" with
  | Some s -> ( try int_of_string s with _ -> 42)
  | None -> 42

(* A deterministic synthetic cardinality provider: cheap (no document),
   spread over three orders of magnitude, and a pure function of the
   mask so DP and BigDP price identical plans identically. *)
let synth_provider =
  {
    Costing.node_card = (fun i -> float_of_int (10 + (i * 37 mod 91)));
    cluster_card =
      (fun m ->
        let h = (m * 2654435761) land 0xFFFF in
        float_of_int (1 + (h mod 1000)));
  }

(* ---------- Status.key includes the consumed-edge set ---------- *)

let test_status_key_regression () =
  (* a(/b,//c): joining edge A-B and joining edge A-C can both leave the
     partition {A,B} | {C} vs {A,B,C}... instead build the collision
     directly: equal partitions, different [joined].  Such a pair is
     unreachable for tree patterns (a connected cluster determines its
     internal edges) but the key must not rely on reachability. *)
  let plan = Plan.scan 0 in
  let mk joined =
    {
      Status.clusters =
        [
          { Status.mask = 0b011; order = 0; plan; card = 1.0 };
          { Status.mask = 0b100; order = 2; plan; card = 1.0 };
        ];
      joined;
      cost = 1.0;
    }
  in
  let a = mk 0b01 and b = mk 0b10 in
  check cb "equal partitions" true
    ((Status.key a).Status.parts = (Status.key b).Status.parts);
  check cb "keys differ on joined" true (Status.key a <> Status.key b);
  check cb "equal statuses share a key" true
    (Status.key a = Status.key (mk 0b01))

(* ---------- word-parallel popcount and the cluster map ---------- *)

let test_popcount_and_cluster_map () =
  let reference m =
    let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
    go m 0
  in
  List.iter
    (fun m -> check ci (Printf.sprintf "popcount %x" m) (reference m)
        (Status.popcount m))
    [ 0; 1; 0b10101; 0xFF; 0xDEADBEEF; max_int; (1 lsl 60) - 1; 1 lsl 60 ];
  let p = Helpers.pat "a(//b(/c),//d)" in
  let ctx = Search.make_ctx ~provider:(Costing.constant_provider 5.0) p in
  let s =
    Status.start ~factors:ctx.Search.factors ~provider:ctx.Search.provider p
  in
  let map = Status.cluster_map ~n:4 s in
  for i = 0 to 3 do
    check cb "map agrees with cluster_of" true
      (map.(i) == Status.cluster_of s i)
  done

(* ---------- the node-count ceiling ---------- *)

let big_chain n =
  let labels = Array.make n (Candidate.of_tag "a") in
  let edges = Array.init (n - 1) (fun i -> (i, Axes.Descendant, i + 1)) in
  Pattern.create ~labels ~edges ()

let test_node_limit () =
  check ci "limit is the mask-safe width" (Sys.int_size - 2) Pattern.max_nodes;
  (* the largest legal pattern still optimizes without mask overflow *)
  let p = big_chain Pattern.max_nodes in
  check ci "node_count" Pattern.max_nodes (Pattern.node_count p);
  let r = Optimizer.optimize ~provider:synth_provider (Optimizer.Big_dp 64) p in
  check (Alcotest.result Alcotest.unit cs) "plan valid"
    (Ok ()) (Properties.validate p r.Optimizer.plan);
  (* one node more is rejected at construction, as a structured request
     error through the guarded surface *)
  (match big_chain (Pattern.max_nodes + 1) with
  | _ -> Alcotest.fail "oversized pattern accepted"
  | exception Invalid_argument _ -> ());
  match
    Sjos_guard.Error.protect (fun () -> big_chain (Pattern.max_nodes + 1))
  with
  | Error (Sjos_guard.Error.Invalid_request _) -> ()
  | _ -> Alcotest.fail "oversized pattern not classed Invalid_request"

(* ---------- effort counters pinned (popcount/cluster-map rework) ---- *)

let test_effort_pins () =
  let idx = Lazy.force Helpers.pers_1k_index in
  let q = Sjos_engine.Workload.q_pers_3_d in
  let p = q.Sjos_engine.Workload.pattern in
  let provider = Helpers.exact_provider idx p in
  let expect =
    (* (algo, considered, generated, expanded, pruned_bound,
       pruned_deadend, pruned_left_deep) — captured before the
       cluster-map/popcount rework; any drift means search behavior
       changed, not just speed *)
    [
      (Optimizer.Dp, 520, 520, 138, 0, 0, 0);
      (Optimizer.Dpp, 235, 235, 72, 102, 105, 0);
      (Optimizer.Dpp_no_lookahead, 340, 340, 102, 102, 0, 0);
      (Optimizer.Dpap_eb 5, 65, 65, 18, 7, 35, 0);
      (Optimizer.Dpap_ld, 64, 64, 33, 25, 3, 51);
      (Optimizer.Fp, 18, 0, 0, 0, 0, 0);
    ]
  in
  List.iter
    (fun (algo, considered, generated, expanded, pb, pd, pl) ->
      let r = Optimizer.optimize ~provider algo p in
      let e = r.Optimizer.effort in
      let nm = Optimizer.name algo in
      check ci (nm ^ " considered") considered e.Effort.considered;
      check ci (nm ^ " generated") generated e.Effort.generated;
      check ci (nm ^ " expanded") expanded e.Effort.expanded;
      check ci (nm ^ " pruned_bound") pb e.Effort.pruned_bound;
      check ci (nm ^ " pruned_deadend") pd e.Effort.pruned_deadend;
      check ci (nm ^ " pruned_left_deep") pl e.Effort.pruned_left_deep)
    expect

(* ---------- subset DP differential against DP/DPP ---------- *)

(* The oracles run the status searches directly on a search context:
   through [Optimizer.optimize], DP and DPP on 8+ nodes re-tier onto the
   subset DP and would compare it with itself. *)
let oracle run p =
  let ctx = Search.make_ctx ~provider:synth_provider p in
  let _, plan = run ctx in
  (Search.plan_cost ctx plan, plan)

let test_bigdp_differential () =
  let bits = Int64.bits_of_float in
  List.iter
    (fun shape ->
      List.iter
        (fun nodes ->
          List.iter
            (fun s ->
              let p = Shapes.generate ~seed:s ~nodes shape in
              let id =
                Printf.sprintf "%s/%d/seed%d" (Shapes.gen_shape_name shape)
                  nodes s
              in
              let optimize a = Optimizer.optimize ~provider:synth_provider a p in
              let exact = optimize Optimizer.Subset_dp in
              let dpp_cost, dpp_plan = oracle (fun ctx -> Dpp.run ctx) p in
              check Alcotest.int64 (id ^ " SubsetDP = DPP cost bits")
                (bits dpp_cost) (bits exact.Optimizer.est_cost);
              if nodes <= 10 then begin
                let dp_cost, _ = oracle Dp.run p in
                check Alcotest.int64 (id ^ " SubsetDP = DP cost bits")
                  (bits dp_cost) (bits exact.Optimizer.est_cost);
                (* the beam prunes nothing at <= 10 nodes *)
                let beam = optimize (Optimizer.Big_dp Bigdp.default_width) in
                check Alcotest.int64 (id ^ " BigDP = DP cost bits")
                  (bits dp_cost) (bits beam.Optimizer.est_cost)
              end;
              check (Alcotest.result Alcotest.unit cs) (id ^ " plan valid")
                (Ok ())
                (Properties.validate p exact.Optimizer.plan);
              (* the plan is priced honestly: re-costing both plans
                 through the same external cost function agrees (the
                 function's order-by accounting differs from the search's
                 internal tally by a constant, so compare plan to plan,
                 not plan to estimate) *)
              let recost plan =
                Costing.cost Sjos_cost.Cost_model.default synth_provider p plan
              in
              Helpers.checkf (id ^ " plan recost") (recost dpp_plan)
                (recost exact.Optimizer.plan))
            [ seed; seed + 1 ])
        [ 4; 5; 6; 7; 8; 9; 10; 11; 12 ])
    Shapes.all_gen_shapes

(* ---------- budget truncation degrades, never crashes ---------- *)

let test_budget_degrades () =
  let p = Shapes.generate ~seed ~nodes:20 Shapes.Star in
  (* DPP on 20 nodes auto-tiers to BigDP; a tiny expansion budget fires
     inside the layered enumeration and the result degrades to the
     narrow-beam fallback tier instead of crashing *)
  let budget = Sjos_guard.Budget.make ~max_expanded:5 () in
  (match
     Optimizer.optimize_r ~budget ~provider:synth_provider Optimizer.Dpp p
   with
  | Ok r ->
      check cb "degraded_from set" true
        (r.Optimizer.degraded_from = Some Optimizer.Dpp);
      check (Alcotest.result Alcotest.unit cs) "degraded plan valid"
        (Ok ())
        (Properties.validate p r.Optimizer.plan)
  | Error e ->
      Alcotest.failf "budgeted big-pattern optimize failed: %s"
        (Sjos_guard.Error.message e));
  (* a 9-node DPP request runs the exact subset DP; a budget firing
     there degrades to the 16-wide beam, not to DPAP-EB *)
  (match
     Optimizer.optimize_r ~budget ~provider:synth_provider Optimizer.Dpp
       (Shapes.generate ~seed ~nodes:9 Shapes.Star)
   with
  | Ok r ->
      check cs "9-node fallback tier" "BigDP(16)"
        (Optimizer.name r.Optimizer.algorithm);
      check cb "9-node degraded_from" true
        (r.Optimizer.degraded_from = Some Optimizer.Dpp)
  | Error e ->
      Alcotest.failf "budgeted 9-node optimize failed: %s"
        (Sjos_guard.Error.message e));
  (* forcing the tier explicitly degrades the same way *)
  match
    Optimizer.optimize_r ~budget ~provider:synth_provider
      (Optimizer.Big_dp 64) p
  with
  | Ok r -> check cb "forced tier degrades too" true
      (r.Optimizer.degraded_from = Some (Optimizer.Big_dp 64))
  | Error e ->
      Alcotest.failf "budgeted forced BigDP failed: %s"
        (Sjos_guard.Error.message e)

(* ---------- generator invariants ---------- *)

let test_generator_invariants () =
  List.iter
    (fun shape ->
      List.iter
        (fun nodes ->
          let p = Shapes.generate ~seed ~nodes shape in
          let id =
            Printf.sprintf "%s/%d" (Shapes.gen_shape_name shape) nodes
          in
          (* Pattern.create already validates tree-ness/connectivity and
             root-to-leaf edge direction; surviving construction is the
             invariant, the rest is per-class structure *)
          check ci (id ^ " node count") nodes (Pattern.node_count p);
          check ci (id ^ " edge count") (nodes - 1) (Pattern.edge_count p);
          (match shape with
          | Shapes.Chain ->
              check cb (id ^ " is a path") true (Pattern.is_path p);
              let desc =
                List.length
                  (List.filter
                     (fun (e : Pattern.edge) -> e.Pattern.axis = Axes.Descendant)
                     (Pattern.edges p))
              in
              check cb (id ^ " mostly // edges") true (2 * desc >= nodes - 1)
          | Shapes.Star ->
              check cb (id ^ " bushy hub") true
                (List.length (Pattern.children_of p 0) >= nodes / 3)
          | Shapes.Balanced ->
              check cb (id ^ " shallow") true
                (Pattern.depth p <= 1 + (nodes |> float_of_int |> log
                                          |> fun l -> int_of_float (l /. log 2.)))
          | Shapes.Mixed -> ());
          (* determinism: same inputs, same pattern *)
          check cs (id ^ " deterministic")
            (Pattern.to_string p)
            (Pattern.to_string (Shapes.generate ~seed ~nodes shape));
          (* distinct seeds disagree somewhere across the batch — the
             stream actually depends on the seed *)
          ())
        [ 15; 25; 40 ])
    Shapes.all_gen_shapes;
  let batch s =
    List.map
      (fun shape -> Pattern.to_string (Shapes.generate ~seed:s ~nodes:25 shape))
      Shapes.all_gen_shapes
  in
  check cb "seed changes the stream" true (batch seed <> batch (seed + 1))

(* ---------- automatic tiering ---------- *)

let test_auto_tiering () =
  let n7 = big_chain Optimizer.big_pattern_threshold in
  let n8 = big_chain (Optimizer.big_pattern_threshold + 1) in
  let top = big_chain Optimizer.exact_limit in
  let past = big_chain (Optimizer.exact_limit + 1) in
  check ci "the status searches keep the paper's sizes" 7
    Optimizer.big_pattern_threshold;
  List.iter
    (fun a ->
      let nm = Optimizer.name a in
      check cb (nm ^ " at 7 runs as asked") true (Optimizer.effective n7 a = a);
      check cb (nm ^ " at 8 is exact") true
        (Optimizer.effective n8 a = Optimizer.Subset_dp);
      check cb (nm ^ " at N is exact") true
        (Optimizer.effective top a = Optimizer.Subset_dp);
      check cb (nm ^ " at N+1 is the beam") true
        (Optimizer.effective past a = Optimizer.Big_dp Bigdp.default_width))
    Optimizer.[ Dp; Dpp; Dpp_no_lookahead ];
  check cb "an explicit exact request past N takes the beam" true
    (Optimizer.effective past Optimizer.Subset_dp
    = Optimizer.Big_dp Bigdp.default_width);
  check cb "heuristics never re-tier" true
    (Optimizer.effective past Optimizer.Fp = Optimizer.Fp);
  let name_of p =
    Optimizer.name
      (Optimizer.optimize ~provider:synth_provider Optimizer.Dpp p)
        .Optimizer.algorithm
  in
  check cs "result reports the exact tier" "SubsetDP" (name_of n8);
  check cs "result reports the beam" "BigDP(1024)" (name_of past);
  (* and the effort counters are reproducible run over run *)
  let r = Optimizer.optimize ~provider:synth_provider Optimizer.Dpp past in
  let r2 = Optimizer.optimize ~provider:synth_provider Optimizer.Dpp past in
  check ci "considered deterministic" r.Optimizer.plans_considered
    r2.Optimizer.plans_considered;
  check ci "expanded deterministic" r.Optimizer.statuses_expanded
    r2.Optimizer.statuses_expanded

(* ---------- end to end through Database ---------- *)

let test_database_end_to_end () =
  let db =
    Database.of_document (Lazy.force Helpers.pers_1k)
  in
  (* a 15-node // self-chain of managers: deep, selective, empty at this
     depth — the point is the pipeline (tiering, caching, execution),
     not the result set *)
  let n = 15 in
  let labels = Array.make n (Candidate.of_tag "manager") in
  let edges = Array.init (n - 1) (fun i -> (i, Axes.Descendant, i + 1)) in
  let p = Pattern.create ~labels ~edges () in
  let run = Database.run db p in
  check cs "ran under the exact tier" "SubsetDP"
    (Optimizer.name run.Database.opt.Optimizer.algorithm);
  check ci "deep self-chain is empty at 1k nodes" 0
    (Array.length run.Database.exec.Sjos_exec.Executor.tuples);
  (* the second run hits the plan cache under the effective-tier key *)
  let again = Database.prepare db p in
  check cb "cache hit on the exact-tier key" true
    (Database.prepared_from_cache again)

(* ---------- the exact mode where the beam is not exact ---------- *)

let test_exact_beats_beam () =
  (* 18 nodes is past the exact limit, so run both modes directly *)
  let p = Shapes.generate ~seed:42 ~nodes:18 Shapes.Star in
  let cost mode =
    let ctx = Search.make_ctx ~provider:synth_provider p in
    let _, plan = Bigdp.run mode ctx in
    check (Alcotest.result Alcotest.unit cs) "plan valid" (Ok ())
      (Properties.validate p plan);
    Printf.sprintf "%.2f" (Search.plan_cost ctx plan)
  in
  check cs "exact optimum" "23778.82" (cost Bigdp.Exact);
  check cs "the capped beam misses it" "24651.98"
    (cost (Bigdp.Beam Bigdp.default_width))

(* ---------- exact-tier effort counters pinned ---------- *)

let test_exact_effort_pins () =
  (* fixed seed: the pin must not move with SJOS_BIGOPT_SEED *)
  let p = Shapes.generate ~seed:42 ~nodes:12 Shapes.Star in
  let r = Optimizer.optimize ~provider:synth_provider Optimizer.Dpp p in
  let e = r.Optimizer.effort in
  check cs "tier" "SubsetDP" (Optimizer.name r.Optimizer.algorithm);
  check ci "considered" 14340 e.Effort.considered;
  check ci "generated" 14340 e.Effort.generated;
  check ci "expanded" 1153 e.Effort.expanded;
  check ci "pruned_bound" 0 e.Effort.pruned_bound;
  check ci "pruned_deadend" 0 e.Effort.pruned_deadend;
  check ci "pruned_left_deep" 0 e.Effort.pruned_left_deep

let suite =
  [
    ("Status.key separates consumed-edge sets", `Quick, test_status_key_regression);
    ("popcount and cluster map", `Quick, test_popcount_and_cluster_map);
    ("node-count ceiling", `Quick, test_node_limit);
    ("effort counters pinned", `Quick, test_effort_pins);
    ("BigDP = DP = DPP on generated patterns, bit-equal", `Quick, test_bigdp_differential);
    ("budget truncation degrades structurally", `Quick, test_budget_degrades);
    ("generator shape invariants", `Quick, test_generator_invariants);
    ("automatic tiering past the threshold", `Quick, test_auto_tiering);
    ("Database end to end at 15 nodes", `Quick, test_database_end_to_end);
    ("exact mode beats the beam at 18 nodes", `Quick, test_exact_beats_beam);
    ("exact-tier effort counters pinned", `Quick, test_exact_effort_pins);
  ]
