(* Binary Stack-Tree plans vs the holistic TwigStack operator, head to head.

   Four deterministic gates:

   1. Output identity — on every cell the binary and holistic engines
      return the same result set (canonically ordered tuples compare
      equal), and the default-Binary Table 2 plan counters stay exact
      (520/226/163/69/42/18).
   2. Deterministic work — running each engine twice yields Work.equal,
      so the head-to-head is scored in deterministic work units, not
      wall clock.
   3. Holistic win — on every deep-`//`-chain cell marked
      [`Holistic], the holistic engine's comparisons + io_items is
      strictly below the binary engine's.
   4. Auto agreement — Auto picks the holistic plan exactly on the
      cells where the cost model prices it below the best binary plan
      (every [`Holistic] cell, no [`Binary] cell), and Auto's result
      set matches both engines everywhere.

   Appends a "twig" perf-history datapoint.  Scale defaults to 0.5.

   Run with: dune exec bench/main.exe twig *)

open Sjos_engine
open Sjos_exec
module Optimizer = Sjos_core.Optimizer
module Plan = Sjos_plan.Plan
module Work = Sjos_obs.Work
module Json = Sjos_obs.Json

let scale = Harness.scale ~default:0.5

(* Chain cells stay well below the differential workload's sizes: a
   deep eNest self-chain's output grows combinatorially with document
   depth, and the point here is the engine comparison, not volume. *)
let bench_size = function
  | Workload.Mbench -> Harness.scaled scale 6_000
  | Workload.Dblp -> Harness.scaled scale 30_000
  | Workload.Pers -> Harness.scaled scale 5_000

(* ---------- cells ---------- *)

type cell = {
  id : string;
  dataset : Workload.dataset;
  text : string;
  expect : [ `Holistic | `Binary ];
      (* which engine the cost model should pick under Auto; `Holistic
         cells additionally gate a strict measured-work win *)
}

let cells =
  [
    (* deep-`//` chains over recursive data, output in document order
       of the chain root: the binary algebra must either buffer every
       intermediate through Stack-Tree-Anc or sort an exploding
       intermediate, while TwigStack streams the candidate columns
       once and pays IO only per path solution *)
    {
      id = "T.Mbench.chain3";
      dataset = Workload.Mbench;
      text = "eNest(//eNest(//eNest)) order by A";
      expect = `Holistic;
    };
    {
      id = "T.Mbench.chain4";
      dataset = Workload.Mbench;
      text = "eNest(//eNest(//eNest(//eNest))) order by A";
      expect = `Holistic;
    };
    (* selective or shallow cells: binary's streaming Stack-Tree-Desc
       joins touch fewer items than a holistic pass over every
       candidate column, and the cost model knows it *)
    {
      id = "T.Pers.chain4";
      dataset = Workload.Pers;
      text = "company(//manager(//manager(//employee)))";
      expect = `Binary;
    };
    {
      id = "T.Mbench.star";
      dataset = Workload.Mbench;
      text = "eNest[@aLevel='2'](//eNest[@aLevel='6'](/eNest[@aLevel='7']))";
      expect = `Binary;
    };
    {
      id = "T.Dblp.branch";
      dataset = Workload.Dblp;
      text = "inproceedings(/author,//cite(/title))";
      expect = `Binary;
    };
    {
      id = "T.Pers.branch";
      dataset = Workload.Pers;
      text = "manager(//employee(/name),//department(/name))";
      expect = `Binary;
    };
  ]

(* ---------- measurement ---------- *)

let opts_for engine =
  (* caching off: every run must exercise the optimizer so est costs
     and plans_considered are comparable across engines *)
  Query_opts.make ~engine ~use_cache:false ()

let accounted db pat engine =
  let t0 = Sjos_obs.Clock.now_ns () in
  let work, outcome =
    Work.scoped (fun () -> Database.run ~opts:(opts_for engine) db pat)
  in
  let seconds = Sjos_obs.Clock.elapsed_seconds ~since:t0 in
  match outcome with Ok r -> (work, r, seconds) | Error e -> raise e

let canonical (r : Database.query_run) =
  let ts = Array.copy r.Database.exec.Executor.tuples in
  Array.sort compare ts;
  ts

(* the head-to-head score: deterministic comparisons plus buffered
   intermediate items — the two counters the twig cost formula prices *)
let score (w : Work.t) = w.Work.comparisons + w.Work.io_items

type row = {
  cell : cell;
  rows_out : int;
  bin_work : Work.t;
  bin_est : float;
  bin_seconds : float;
  hol_work : Work.t;
  hol_est : float;
  hol_seconds : float;
  auto_holistic : bool;
  identical : bool;
  deterministic : bool;
}

let measure cell =
  let db = Harness.db ~size:(bench_size cell.dataset) cell.dataset in
  let pat = Sjos_pattern.Parse.pattern cell.text in
  let bw, br, bs = accounted db pat Optimizer.Binary in
  let bw2, br2, _ = accounted db pat Optimizer.Binary in
  let hw, hr, hs = accounted db pat Optimizer.Holistic in
  let hw2, hr2, _ = accounted db pat Optimizer.Holistic in
  let _, ar, _ = accounted db pat Optimizer.Auto in
  let cb = canonical br and ch = canonical hr and ca = canonical ar in
  {
    cell;
    rows_out = Array.length cb;
    bin_work = bw;
    bin_est = br.Database.opt.Optimizer.est_cost;
    bin_seconds = bs;
    hol_work = hw;
    hol_est = hr.Database.opt.Optimizer.est_cost;
    hol_seconds = hs;
    auto_holistic = Plan.uses_holistic ar.Database.opt.Optimizer.plan;
    identical = cb = ch && cb = ca;
    deterministic =
      Work.equal bw bw2 && Work.equal hw hw2
      && canonical br2 = cb && canonical hr2 = ch;
  }

(* ---------- main ---------- *)

let run () =
  Printf.printf "twig engine head-to-head: binary vs holistic (scale %.2f)\n"
    scale;
  let rows = List.map measure cells in
  Printf.printf "%-16s %7s | %12s %12s %10s | %12s %12s %10s | %s\n" "cell"
    "tuples" "bin cmp+io" "bin est" "bin(s)" "hol cmp+io" "hol est" "hol(s)"
    "auto";
  List.iter
    (fun r ->
      Printf.printf
        "%-16s %7d | %12d %12.0f %10.4f | %12d %12.0f %10.4f | %s%s\n"
        r.cell.id r.rows_out (score r.bin_work) r.bin_est r.bin_seconds
        (score r.hol_work) r.hol_est r.hol_seconds
        (if r.auto_holistic then "holistic" else "binary")
        (if r.identical then "" else "  !! MISMATCH"))
    rows;
  let row_json r =
    Json.Obj
      [
        ("id", Json.Str r.cell.id);
        ("dataset", Json.Str (Workload.dataset_name r.cell.dataset));
        ("pattern", Json.Str r.cell.text);
        ("expect",
         Json.Str (match r.cell.expect with
                   | `Holistic -> "holistic"
                   | `Binary -> "binary"));
        ("output_tuples", Json.Int r.rows_out);
        ("binary",
         Json.Obj
           [
             ("comparisons", Json.Int r.bin_work.Work.comparisons);
             ("io_items", Json.Int r.bin_work.Work.io_items);
             ("score", Json.Int (score r.bin_work));
             ("est_cost", Json.Float r.bin_est);
             ("seconds", Json.Float r.bin_seconds);
           ]);
        ("holistic",
         Json.Obj
           [
             ("comparisons", Json.Int r.hol_work.Work.comparisons);
             ("io_items", Json.Int r.hol_work.Work.io_items);
             ("score", Json.Int (score r.hol_work));
             ("est_cost", Json.Float r.hol_est);
             ("seconds", Json.Float r.hol_seconds);
           ]);
        ("auto_picked", Json.Str (if r.auto_holistic then "holistic" else "binary"));
        ("identical", Json.Bool r.identical);
        ("deterministic", Json.Bool r.deterministic);
      ]
  in
  let entries =
    List.concat_map
      (fun r ->
        [
          {
            Sjos_obs.Perf_history.entry_id = r.cell.id ^ ":binary";
            work = r.bin_work;
            allocated_bytes = 0.;
            seconds = r.bin_seconds;
          };
          {
            Sjos_obs.Perf_history.entry_id = r.cell.id ^ ":holistic";
            work = r.hol_work;
            allocated_bytes = 0.;
            seconds = r.hol_seconds;
          };
        ])
      rows
  in
  let meta = [ ("scale", Json.Float scale) ] in
  let holistic_cells = List.filter (fun r -> r.cell.expect = `Holistic) rows in
  Harness.report ~file:"BENCH_TWIG.json"
    ~fields:(meta @ [ ("cells", Json.List (List.map row_json rows)) ])
    ~history:(meta, entries)
    [
      ("identical_outputs", List.for_all (fun r -> r.identical) rows);
      ("deterministic_work", List.for_all (fun r -> r.deterministic) rows);
      ("table2_exact", Harness.table2_exact ());
      ( "holistic_wins_deep_chains",
        holistic_cells <> []
        && List.for_all
             (fun r -> score r.hol_work < score r.bin_work)
             holistic_cells );
      ( "auto_agrees",
        List.for_all
          (fun r -> r.auto_holistic = (r.cell.expect = `Holistic))
          rows );
      ( "nonempty_work",
        rows <> [] && List.for_all (fun r -> r.rows_out > 0) rows );
    ]
