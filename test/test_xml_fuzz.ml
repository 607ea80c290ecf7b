(* Seeded XML fuzz campaign.  Serialized documents are truncated, have
   bytes flipped, or get stray markup spliced in.  Every mutant must either
   parse to a valid document or raise [Parser.Parse_error] at a position
   inside the input: no [Invalid_argument], [Not_found] or index error may
   escape the scanner.

   The campaign is deterministic; CI varies its base via the SJOS_XML_SEED
   environment variable so different runs explore different mutants while
   any failure stays replayable from its seed. *)

open Sjos_xml
open Sjos_datagen

let seed_base =
  match Sys.getenv_opt "SJOS_XML_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 7)
  | None -> 7

(* Markup the datagen documents never contain. *)
let markup_rich =
  [
    "<?xml version='1.0'?><!DOCTYPE r><!-- c --><r a='1' b=\"x &amp; y\">\
     t &lt; u<?pi data?><![CDATA[ <raw> ]]>&#65;&#x42;<k/> v</r>";
    "<r>\n  <a k='v'>one &amp; two</a>\n  <!-- note -->\n  <b/>\n</r>\n";
  ]

let splices =
  [| "<"; "&"; "\""; "'"; "]]>"; "<!--"; "-->"; "<![CDATA["; "</"; "/>";
     "&#x"; "&#"; ";"; "<?"; "?>"; "="; ">"; "<!" |]

let mutate rng s =
  let s = ref s in
  for _ = 0 to Rng.int rng 3 do
    let n = String.length !s in
    match Rng.int rng 3 with
    | 0 -> s := String.sub !s 0 (Rng.int rng (n + 1))
    | 1 when n > 0 ->
        let b = Bytes.of_string !s in
        let i = Rng.int rng n in
        Bytes.set b i
          (Char.chr (Char.code (Bytes.get b i) lxor (1 + Rng.int rng 255)));
        s := Bytes.to_string b
    | _ ->
        let i = Rng.int rng (n + 1) in
        let piece = splices.(Rng.int rng (Array.length splices)) in
        s := String.sub !s 0 i ^ piece ^ String.sub !s i (n - i)
  done;
  !s

(* Byte offset of a 1-based (line, col), or -1 past the last line. *)
let offset_of src ~line ~col =
  let rec bol l i =
    if l = line then Some i
    else
      match String.index_from_opt src i '\n' with
      | Some j -> bol (l + 1) (j + 1)
      | None -> None
  in
  match bol 1 0 with Some b -> b + col - 1 | None -> -1

let check_input ~seed src =
  match Parser.parse_string src with
  | doc -> (
      match Document.validate doc with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "seed %d: parsed to an invalid document (%s): %S" seed
            e src)
  | exception Parser.Parse_error { line; col; message } ->
      let off = offset_of src ~line ~col in
      if line < 1 || col < 1 || off < 0 || off > String.length src then
        Alcotest.failf "seed %d: error %d:%d (%s) lies outside the input: %S"
          seed line col message src
  | exception e ->
      Alcotest.failf "seed %d: %s escaped the parser on %S" seed
        (Printexc.to_string e) src

let test_prefixes () =
  List.iter
    (fun src ->
      for n = 0 to String.length src do
        check_input ~seed:(-1) (String.sub src 0 n)
      done)
    markup_rich

let test_mutants () =
  for k = 0 to 199 do
    let seed = seed_base + k in
    let rng = Rng.create seed in
    let base =
      if k mod 5 = 0 then List.nth markup_rich (k / 5 mod 2)
      else Serializer.to_string ~indent:(Rng.bool rng) (Helpers.tricky_doc seed)
    in
    for _ = 1 to 8 do
      check_input ~seed (mutate rng base)
    done
  done

let suite =
  [
    ("every prefix of markup-rich input", `Quick, test_prefixes);
    ("seeded mutants parse or raise Parse_error", `Quick, test_mutants);
  ]
