"""Tests for the Microcode disassembler: re-compilable round trips."""

from repro.microcode import TrioCompiler
from repro.microcode.disasm import disassemble, format_expr
from repro.microcode.parser import parse
from repro.microcode.programs import BUILTIN_PROGRAMS, compile_filter_program


class TestDisassembly:
    def test_filter_program_renders_all_instructions(self):
        text = disassemble(compile_filter_program())
        for name in ("process_ether", "process_ip", "count_dropped"):
            assert f"{name}:" in text
        assert "struct ether_t" in text
        assert "CounterIncPhys" in text
        assert "// entry: process_ether" in text

    def test_budget_annotations_present(self):
        text = disassemble(compile_filter_program())
        assert "reads:" in text and "writes:" in text

    def test_register_assignments_annotated(self):
        text = disassemble(compile_filter_program())
        assert "reg ir0;  // GPR r0" in text

    def test_disassembly_of_trioml_parse(self):
        text = disassemble(BUILTIN_PROGRAMS["trio_ml_parse"].compile())
        assert "struct trio_ml_hdr_t" in text
        assert "goto aggregate;" in text

    def test_statement_body_reparses(self):
        """The instruction bodies the disassembler emits are themselves
        valid Microcode (modulo resolved consts), so it can serve as a
        source formatter."""
        source = """
        struct t { a : 8; : 8; };
        const K = 7;
        reg r;
        ptr p = t @ 0;
        main:
        begin
            r = K + p->a * 2;
            if (r == 14) {
                goto other;
            }
            switch (r) {
                case 1, 2:
                    r = 0;
                default:
                    exit;
            }
            call other;
            exit;
        end
        other:
        begin
            return;
        end
        """
        program = TrioCompiler().compile(source)
        text = disassemble(program)
        # The emitted text parses back into the same instruction set.
        reparsed = parse(text)
        assert {i.name for i in reparsed.instructions} == {"main", "other"}
        assert reparsed.structs[0].name == "t"

    def test_format_expr_precedence_safe(self):
        source = """
        reg a; reg b; reg out;
        main:
        begin
            out = a + b * 3;
            exit;
        end
        """
        program = TrioCompiler().compile(source)
        stmt = program.instructions["main"].body[0]
        rendered = format_expr(stmt.expr)
        # Fully parenthesised: no precedence ambiguity on re-parse.
        assert rendered == "(a + (b * 3))"

    def test_call_return_rendered(self):
        program = TrioCompiler().compile("""
        main:
        begin
            call sub;
            exit;
        end
        sub:
        begin
            return;
        end
        """)
        text = disassemble(program)
        assert "call sub;" in text
        assert "return;" in text
