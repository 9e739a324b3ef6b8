//! Program ids are derived from the unit name, the form's index and the
//! form's Debug print, and a migrated continuation re-links to its
//! program by that id on whichever node loads the same source. These ids
//! were taken from an earlier build: if one moves, continuations
//! persisted by that build no longer load.

use gozer_lang::Reader;
use gozer_vm::Gvm;

const SOURCE: &str = r#"
;; A macro, a function that uses it, a variable and a call.
(defmacro twice (x) `(* 2 ,x))
(defun scaled (n &optional (k 3))
  "Twice n, times k."
  (let ((v (twice n)))
    (* v k)))
(defvar *base* [1 2.5 "s" #\c :kw {:a 1}])
(scaled 7)
"#;

const LOADED: [u64; 4] = [
    0x4052a5b5ff2bb6d5,
    0xfc712ee494815ecd,
    0x3109e3c988f26fc2,
    0x985c7485a6919f32,
];

const EVALUATED: u64 = 0x250c8dcbf38cd1ef;

#[test]
fn loaded_forms_keep_their_program_ids() {
    let gvm = Gvm::with_pool_size(1);
    gvm.load_str(SOURCE, "pinned-unit").expect("source loads");
    for (i, id) in LOADED.iter().enumerate() {
        assert!(gvm.get_program(*id).is_some(), "form {i}: id {id:#x}");
    }
}

#[test]
fn an_evaluated_form_keeps_its_program_id() {
    let gvm = Gvm::with_pool_size(1);
    let form = Reader::read_one_str("(list 1 \"two\" 'three)").expect("reads");
    gvm.eval_form(&form, "pinned-eval").expect("evaluates");
    assert!(gvm.get_program(EVALUATED).is_some(), "id {EVALUATED:#x}");
}
