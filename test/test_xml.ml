open Sjos_xml

let check = Alcotest.check
let ci = Alcotest.int
let cs = Alcotest.string
let cb = Alcotest.bool

(* ---------- Builder ---------- *)

let test_builder_intervals () =
  let b = Builder.create () in
  Builder.open_element b "a";
  Builder.open_element b "b";
  Builder.close_element b;
  Builder.open_element b "c";
  Builder.open_element b "d";
  Builder.close_element b;
  Builder.close_element b;
  Builder.close_element b;
  let doc = Builder.finish b in
  check ci "four nodes" 4 (Document.size doc);
  let a = Document.node doc 0
  and bn = Document.node doc 1
  and c = Document.node doc 2
  and d = Document.node doc 3 in
  check cs "root tag" "a" a.Node.tag;
  check ci "a start" 0 a.Node.start_pos;
  check ci "b start" 1 bn.Node.start_pos;
  check ci "b end" 2 bn.Node.end_pos;
  check ci "c start" 3 c.Node.start_pos;
  check ci "d start" 4 d.Node.start_pos;
  check ci "d end" 5 d.Node.end_pos;
  check ci "c end" 6 c.Node.end_pos;
  check ci "a end" 7 a.Node.end_pos;
  check ci "a level" 0 a.Node.level;
  check ci "d level" 2 d.Node.level;
  check ci "d parent" 2 d.Node.parent;
  check ci "b parent" 0 bn.Node.parent

let test_builder_text_and_attrs () =
  let b = Builder.create () in
  Builder.open_element b ~attrs:[ ("k", "v"); ("x", "1") ] "root";
  Builder.text b "hello";
  Builder.text b " world";
  Builder.close_element b;
  let doc = Builder.finish b in
  let r = Document.root doc in
  check cs "text accumulates" "hello world" r.Node.text;
  check (Alcotest.option cs) "attr k" (Some "v") (Node.attr r "k");
  check (Alcotest.option cs) "attr missing" None (Node.attr r "nope");
  check cb "has_attr_value" true (Node.has_attr_value r "x" "1");
  check cb "has_attr_value wrong" false (Node.has_attr_value r "x" "2")

let expect_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_builder_errors () =
  expect_invalid (fun () ->
      let b = Builder.create () in
      Builder.close_element b);
  expect_invalid (fun () ->
      let b = Builder.create () in
      Builder.text b "x");
  expect_invalid (fun () ->
      let b = Builder.create () in
      Builder.open_element b "a";
      Builder.finish b);
  expect_invalid (fun () ->
      let b = Builder.create () in
      Builder.finish b);
  expect_invalid (fun () ->
      let b = Builder.create () in
      Builder.leaf b "a";
      Builder.open_element b "b")

let test_builder_leaf_depth () =
  let b = Builder.create () in
  Builder.open_element b "root";
  check ci "depth 1" 1 (Builder.depth b);
  Builder.leaf ~text:"t" b "kid";
  check ci "leaf leaves depth" 1 (Builder.depth b);
  Builder.close_element b;
  check ci "depth 0" 0 (Builder.depth b);
  let doc = Builder.finish b in
  check ci "two nodes" 2 (Document.size doc);
  check cs "leaf text" "t" (Document.node doc 1).Node.text

(* ---------- Document ---------- *)

let nested_doc () =
  Parser.parse_string
    "<a><b><c/><d/></b><e><f><g/></f></e></a>"

let test_document_navigation () =
  let doc = nested_doc () in
  let tags l = List.map (fun (n : Node.t) -> n.Node.tag) l in
  let a = Document.root doc in
  check (Alcotest.list cs) "children of root" [ "b"; "e" ]
    (tags (Document.children doc a));
  check (Alcotest.list cs) "descendants of root" [ "b"; "c"; "d"; "e"; "f"; "g" ]
    (tags (Document.descendants doc a));
  let g = Document.node doc 6 in
  check cs "g tag" "g" g.Node.tag;
  check (Alcotest.list cs) "ancestors of g" [ "f"; "e"; "a" ]
    (tags (Document.ancestors doc g));
  check cb "root has no parent" true (Document.parent doc a = None);
  check ci "max level" 3 (Document.max_level doc);
  check ci "count b" 1 (Document.count_tag doc "b");
  check ci "count zz" 0 (Document.count_tag doc "zz");
  check (Alcotest.list cs) "tags sorted" [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ]
    (Document.tags doc)

let test_document_validate () =
  let doc = nested_doc () in
  (match Document.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* corrupt a level *)
  let nodes = Array.map Fun.id (Document.nodes doc) in
  nodes.(3) <- { nodes.(3) with Node.level = 9 };
  let bad = Document.of_nodes nodes in
  check cb "corrupt level detected" true (Result.is_error (Document.validate bad));
  (* corrupt interval nesting *)
  let nodes2 = Array.map Fun.id (Document.nodes doc) in
  nodes2.(1) <- { nodes2.(1) with Node.end_pos = 100 };
  check cb "corrupt interval detected" true
    (Result.is_error (Document.validate (Document.of_nodes nodes2)))

let test_document_errors () =
  expect_invalid (fun () -> Document.node (nested_doc ()) 99);
  expect_invalid (fun () -> Document.node (nested_doc ()) (-1));
  expect_invalid (fun () ->
      Document.of_nodes
        [| { Node.id = 5; tag = "x"; start_pos = 0; end_pos = 1; level = 0;
             parent = -1; attrs = []; text = "" } |])

(* ---------- Parser ---------- *)

let test_parser_basic () =
  let doc = Parser.parse_string "<r a='1' b=\"two\"><x>hi</x><y/></r>" in
  check ci "three nodes" 3 (Document.size doc);
  let r = Document.root doc in
  check (Alcotest.option cs) "attr a" (Some "1") (Node.attr r "a");
  check (Alcotest.option cs) "attr b" (Some "two") (Node.attr r "b");
  check cs "text of x" "hi" (Document.node doc 1).Node.text

let test_parser_entities () =
  let doc = Parser.parse_string "<r>a&amp;b&lt;c&gt;d&#65;&#x42;</r>" in
  check cs "entities decoded" "a&b<c>dAB" (Document.root doc).Node.text;
  let doc2 = Parser.parse_string "<r k='x&quot;y'/>" in
  check (Alcotest.option cs) "entity in attr" (Some "x\"y")
    (Node.attr (Document.root doc2) "k")

let test_parser_misc_markup () =
  let doc =
    Parser.parse_string
      "<?xml version='1.0'?><!-- c --><r><!-- inner --><a/><?pi data?><![CDATA[x<y]]></r>"
  in
  check ci "nodes" 2 (Document.size doc);
  check cs "cdata text" "x<y" (Document.root doc).Node.text

(* Exact (line, col, message) for every [fail] site of the parser.  Line
   and column are 1-based and counted in bytes; only '\n' starts a line. *)
let error_positions =
  [
    ("", 1, 1, "empty document");
    ("   \n  ", 2, 3, "empty document");
    ("plain text", 1, 1, "expected '<', found 'p'");
    ("<>", 1, 2, "expected a name");
    ("<a foo></a>", 1, 7, "expected '=', found '>'");
    ("<a k=v/>", 1, 6, "expected quoted value");
    ("<a k='v", 1, 8, "unterminated attribute value");
    ("<a k='&bogus;'/>", 1, 14, "unknown entity &bogus;");
    ("<a k=\"x\" k2></a>", 1, 12, "expected '=', found '>'");
    ("<a>&amp</a>", 1, 12, "unterminated entity");
    ("<a>&unknown;</a>", 1, 13, "unknown entity &unknown;");
    ("<a>&#xZZ;</a>", 1, 10, "bad character reference &#xZZ;");
    ("<a>&#12a;</a>", 1, 10, "bad character reference &#12a;");
    ("<a>x &#99999999999999999999; y</a>", 1, 29,
     "bad character reference &#99999999999999999999;");
    ("<a>", 1, 4, "unterminated element <a>");
    ("<a><b></a></b>", 1, 11, "mismatched </a>, expected </b>");
    ("<a>\n  <b>\n  </c>\n</a>", 3, 7, "mismatched </c>, expected </b>");
    ("<a></a><b></b>", 1, 8, "content after root element");
    ("<a></a>\n\ntrailing", 3, 1, "content after root element");
    ("<?xml version='1.0'", 1, 19, "unterminated ?>");
    ("<!-- never closed", 1, 16, "unterminated -->");
    ("<!DOCTYPE a", 1, 12, "unterminated >");
    (* the position where "]]>" would have to start, from the byte offset *)
    ("<a><![CDATA[x", 1, 13, "unterminated ]]>");
    ("<a><!-- x</a>", 1, 12, "unterminated -->");
    ("<a><!x></a>", 1, 10, "unterminated -->");
    ("<a><?pi</a>", 1, 11, "unterminated ?>");
    ("<a/", 1, 4, "expected '>', found '\\000'");
    ("<a></a  x>", 1, 9, "expected '>', found 'x'");
    ("<a></>", 1, 6, "expected a name");
    ("<a>\r\n<b>&lt</b></a>", 2, 15, "unterminated entity");
    ("<r>\n<x a='1'\n b='2' c></x></r>", 3, 9, "expected '=', found '>'");
  ]

let test_parser_errors () =
  List.iter
    (fun (input, line, col, message) ->
      match Parser.parse_string input with
      | exception Parser.Parse_error e ->
          check
            Alcotest.(triple int int string)
            (Printf.sprintf "%S" input) (line, col, message)
            (e.line, e.col, e.message)
      | _ -> Alcotest.failf "expected a parse error for %S" input)
    error_positions;
  check cb "error_to_string" true
    (Option.is_some
       (Parser.error_to_string
          (Parser.Parse_error { line = 1; col = 2; message = "m" })));
  check cb "error_to_string other" true
    (Option.is_none (Parser.error_to_string Exit))

let test_parser_text_around_references () =
  let text s = (Document.root (Parser.parse_string s)).Node.text in
  check cs "spaces beside a reference" "Tom & Jerry"
    (text "<r>Tom &amp; Jerry</r>");
  check cs "run trimmed at its raw ends" "a < b > c"
    (text "<r>\n  a &lt; b &gt; c \n</r>");
  check cs "decoded spaces are kept" " x "
    (text "<r> &#32;x&#x20; </r>");
  check cs "runs split by markup" "x& y" (text "<r>x <b/> &amp; y</r>");
  check cs "reference-only run" "&" (text "<r>  &amp;  </r>");
  check cs "cdata kept verbatim" "a b c" (text "<r>a<![CDATA[ b ]]>c</r>")

(* Allocation gates: the scanner allocates per node and per name, not per
   byte, so a large document and a long comment stay cheap. *)
let alloc_during f =
  let before = Gc.allocated_bytes () in
  let r = f () in
  (r, Gc.allocated_bytes () -. before)

let test_parser_alloc_per_byte () =
  let src =
    Serializer.to_string
      (Sjos_datagen.Mbench.generate ~seed:3 ~target_nodes:100_000 ())
  in
  let doc, bytes = alloc_during (fun () -> Parser.parse_string src) in
  check ci "all nodes parsed" 100_000 (Document.size doc);
  let per_byte = bytes /. float (String.length src) in
  if per_byte > 12.0 then
    Alcotest.failf "parse allocated %.2f bytes per input byte (limit 12)"
      per_byte

let test_parser_alloc_comment () =
  let body = String.make 1_000_000 'x' in
  List.iter
    (fun src ->
      let doc, bytes = alloc_during (fun () -> Parser.parse_string src) in
      check ci "one element" 1 (Document.size doc);
      if bytes >= float (String.length body) then
        Alcotest.failf "a 1 MB comment cost %.0f bytes of allocation" bytes)
    [ "<!--" ^ body ^ "--><r/>"; "<r><!--" ^ body ^ "--></r>" ]

let test_parse_serialize_roundtrip () =
  let original = Lazy.force Helpers.tiny_pers in
  let text = Serializer.to_string ~indent:false original in
  let reparsed = Parser.parse_string text in
  check ci "same size" (Document.size original) (Document.size reparsed);
  Array.iteri
    (fun i (n : Node.t) ->
      let m = Document.node reparsed i in
      check cs "tag" n.Node.tag m.Node.tag;
      check ci "start" n.Node.start_pos m.Node.start_pos;
      check ci "end" n.Node.end_pos m.Node.end_pos;
      check cs "text" n.Node.text m.Node.text)
    (Document.nodes original)

(* ---------- Serializer ---------- *)

let test_serializer_escaping () =
  check cs "text escape" "a&amp;b&lt;c&gt;" (Serializer.escape_text "a&b<c>");
  check cs "attr escape" "&quot;x&amp;" (Serializer.escape_attr "\"x&");
  let b = Builder.create () in
  Builder.open_element b ~attrs:[ ("k", "a\"b") ] "r";
  Builder.text b "1<2";
  Builder.close_element b;
  let doc = Builder.finish b in
  let s = Serializer.to_string ~indent:false doc in
  check cs "serialized" "<r k=\"a&quot;b\">1&lt;2</r>" s

let test_serializer_subtree () =
  let doc = nested_doc () in
  let e = Document.node doc 4 in
  check cs "subtree" "<e><f><g/></f></e>" (Serializer.subtree_to_string doc e)

let test_serializer_indent () =
  let doc = Parser.parse_string "<a><b/></a>" in
  let s = Serializer.to_string ~indent:true doc in
  check cb "has newline" true (String.contains s '\n')

(* ---------- Axes ---------- *)

let test_axes () =
  let doc = nested_doc () in
  let a = Document.node doc 0
  and b = Document.node doc 1
  and c = Document.node doc 2
  and e = Document.node doc 4
  and g = Document.node doc 6 in
  check cb "a anc of g" true (Axes.is_ancestor a g);
  check cb "a parent of b" true (Axes.is_parent a b);
  check cb "a not parent of g" false (Axes.is_parent a g);
  check cb "g desc of a" true (Axes.is_descendant g a);
  check cb "c child of b" true (Axes.is_child c b);
  check cb "b,e disjoint" true (Axes.disjoint b e);
  check cb "a,g not disjoint" false (Axes.disjoint a g);
  check cb "related child" true (Axes.related Axes.Child ~anc:a ~desc:b);
  check cb "related desc" true (Axes.related Axes.Descendant ~anc:a ~desc:g);
  check cb "related child deep" false (Axes.related Axes.Child ~anc:a ~desc:g);
  check cb "doc order" true (Axes.document_order a b < 0);
  check cs "axis strings" "/" (Axes.axis_to_string Axes.Child);
  check cs "axis strings 2" "//" (Axes.axis_to_string Axes.Descendant)

let test_node_helpers () =
  let doc = nested_doc () in
  let a = Document.node doc 0 in
  check ci "width" (a.Node.end_pos - a.Node.start_pos) (Node.width a);
  check cb "pp prints" true (String.length (Fmt.str "%a" Node.pp a) > 0)

let suite =
  [
    ("builder intervals", `Quick, test_builder_intervals);
    ("builder text and attrs", `Quick, test_builder_text_and_attrs);
    ("builder errors", `Quick, test_builder_errors);
    ("builder leaf and depth", `Quick, test_builder_leaf_depth);
    ("document navigation", `Quick, test_document_navigation);
    ("document validate", `Quick, test_document_validate);
    ("document errors", `Quick, test_document_errors);
    ("parser basic", `Quick, test_parser_basic);
    ("parser entities", `Quick, test_parser_entities);
    ("parser misc markup", `Quick, test_parser_misc_markup);
    ("parser errors", `Quick, test_parser_errors);
    ("parser text around references", `Quick, test_parser_text_around_references);
    ("parser allocation per input byte", `Quick, test_parser_alloc_per_byte);
    ("parser allocation on a long comment", `Quick, test_parser_alloc_comment);
    ("parse/serialize roundtrip", `Quick, test_parse_serialize_roundtrip);
    ("serializer escaping", `Quick, test_serializer_escaping);
    ("serializer subtree", `Quick, test_serializer_subtree);
    ("serializer indent", `Quick, test_serializer_indent);
    ("axes predicates", `Quick, test_axes);
    ("node helpers", `Quick, test_node_helpers);
  ]
