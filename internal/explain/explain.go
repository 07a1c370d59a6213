// Package explain renders NQL programs as plain-English step lists — the
// paper's §5 "code comprehension" aid. Operators reviewing generated code
// before approval get a deterministic, rule-based narration of what the
// program will do (no LLM involved, so the explanation cannot
// hallucinate: it is derived from the same AST the sandbox executes).
package explain

import (
	"fmt"
	"strings"

	"repro/internal/nql"
)

// Program parses src and returns a bullet-list explanation, or the parse
// error (itself useful to surface before execution).
func Program(src string) (string, error) {
	prog, err := nql.Parse(src)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, st := range prog.Stmts {
		writeStmt(&sb, st, 0)
	}
	return sb.String(), nil
}

func indent(sb *strings.Builder, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString("- ")
}

func writeStmt(sb *strings.Builder, st nql.Stmt, depth int) {
	switch s := st.(type) {
	case *nql.LetStmt:
		indent(sb, depth)
		fmt.Fprintf(sb, "define %s as %s\n", s.Name, expr(s.Init))
	case *nql.AssignStmt:
		indent(sb, depth)
		fmt.Fprintf(sb, "set %s to %s\n", expr(s.Target), expr(s.Value))
	case *nql.ExprStmt:
		indent(sb, depth)
		fmt.Fprintf(sb, "%s\n", sentenceCase(expr(s.X)))
	case *nql.IfStmt:
		indent(sb, depth)
		fmt.Fprintf(sb, "if %s:\n", expr(s.Cond))
		for _, inner := range s.Then {
			writeStmt(sb, inner, depth+1)
		}
		if len(s.Else) > 0 {
			indent(sb, depth)
			sb.WriteString("otherwise:\n")
			for _, inner := range s.Else {
				writeStmt(sb, inner, depth+1)
			}
		}
	case *nql.ForStmt:
		indent(sb, depth)
		if s.Var2 != "" {
			fmt.Fprintf(sb, "for each %s, %s in %s:\n", s.Var, s.Var2, expr(s.Iter))
		} else {
			fmt.Fprintf(sb, "for each %s in %s:\n", s.Var, expr(s.Iter))
		}
		for _, inner := range s.Body {
			writeStmt(sb, inner, depth+1)
		}
	case *nql.WhileStmt:
		indent(sb, depth)
		fmt.Fprintf(sb, "repeat while %s:\n", expr(s.Cond))
		for _, inner := range s.Body {
			writeStmt(sb, inner, depth+1)
		}
	case *nql.FuncStmt:
		indent(sb, depth)
		fmt.Fprintf(sb, "define helper %s(%s):\n", s.Name, strings.Join(s.Params, ", "))
		for _, inner := range s.Body {
			writeStmt(sb, inner, depth+1)
		}
	case *nql.ReturnStmt:
		indent(sb, depth)
		if s.Value == nil {
			sb.WriteString("finish\n")
		} else {
			fmt.Fprintf(sb, "answer with %s\n", expr(s.Value))
		}
	case *nql.BreakStmt:
		indent(sb, depth)
		sb.WriteString("stop the loop\n")
	case *nql.ContinueStmt:
		indent(sb, depth)
		sb.WriteString("skip to the next iteration\n")
	default:
		indent(sb, depth)
		fmt.Fprintf(sb, "(statement)\n")
	}
}

// methodPhrases gives domain phrasing for well-known binding calls.
var methodPhrases = map[string]string{
	"nodes":                "all nodes of %s",
	"edges":                "all edges of %s",
	"neighbors":            "the neighbors of",
	"degree":               "the degree of",
	"shortest_path":        "the shortest path between",
	"connected_components": "the connected components of %s",
	"remove_node":          "remove node",
	"remove_edge":          "remove the edge",
	"add_node":             "add node",
	"add_edge":             "add an edge",
	"set_node_attr":        "set a node attribute",
	"query":                "run the SQL query",
	"exec":                 "execute the SQL statement",
	"filter":               "keep the rows of %s where the condition holds",
	"groupby":              "group %s by",
	"sort_values":          "sort %s by",
	"merge":                "join %s with",
}

func expr(e nql.Expr) string {
	switch x := e.(type) {
	case *nql.Ident:
		return x.Name
	case *nql.IntLit:
		return fmt.Sprintf("%d", x.Value)
	case *nql.FloatLit:
		return fmt.Sprintf("%g", x.Value)
	case *nql.StringLit:
		return fmt.Sprintf("%q", x.Value)
	case *nql.BoolLit:
		return fmt.Sprintf("%v", x.Value)
	case *nql.NilLit:
		return "nothing"
	case *nql.ListLit:
		if len(x.Items) == 0 {
			return "an empty list"
		}
		parts := make([]string, len(x.Items))
		for i, it := range x.Items {
			parts[i] = expr(it)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case *nql.MapLit:
		if len(x.Keys) == 0 {
			return "an empty map"
		}
		parts := make([]string, len(x.Keys))
		for i := range x.Keys {
			parts[i] = expr(x.Keys[i]) + ": " + expr(x.Values[i])
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case *nql.BinaryExpr:
		op := map[string]string{
			"==": "equals", "!=": "differs from", "and": "and", "or": "or",
			"in": "is in", "<": "is less than", "<=": "is at most",
			">": "exceeds", ">=": "is at least",
		}[x.Op]
		if op == "" {
			op = x.Op
		}
		return fmt.Sprintf("%s %s %s", expr(x.Left), op, expr(x.Right))
	case *nql.UnaryExpr:
		if x.Op == "not" {
			return "not (" + expr(x.X) + ")"
		}
		return "-" + expr(x.X)
	case *nql.IndexExpr:
		return fmt.Sprintf("%s[%s]", expr(x.X), expr(x.Index))
	case *nql.AttrExpr:
		return fmt.Sprintf("the %s of %s", x.Name, expr(x.X))
	case *nql.LambdaExpr:
		return fmt.Sprintf("a function of (%s) computing %s", strings.Join(x.Params, ", "), expr(x.Body))
	case *nql.CallExpr:
		return callPhrase(x)
	default:
		return "(expression)"
	}
}

func callPhrase(c *nql.CallExpr) string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = expr(a)
	}
	argList := strings.Join(args, ", ")
	if attr, ok := c.Fn.(*nql.AttrExpr); ok {
		recv := expr(attr.X)
		if phrase, ok := methodPhrases[attr.Name]; ok {
			if strings.Contains(phrase, "%s") {
				out := fmt.Sprintf(phrase, recv)
				if argList != "" {
					out += " " + argList
				}
				return out
			}
			return phrase + " " + argList
		}
		return fmt.Sprintf("%s of %s(%s)", attr.Name, recv, argList)
	}
	if id, ok := c.Fn.(*nql.Ident); ok {
		switch id.Name {
		case "print":
			return "print " + argList
		case "push":
			if len(args) == 2 {
				return fmt.Sprintf("append %s to %s", args[1], args[0])
			}
		case "len":
			return "the number of items in " + argList
		case "sorted":
			return "the sorted form of " + argList
		case "sum":
			return "the sum of " + argList
		case "keys":
			return "the keys of " + argList
		case "kmeans":
			if len(args) == 2 {
				return fmt.Sprintf("the k-means clustering of %s into %s groups", args[0], args[1])
			}
		}
		return fmt.Sprintf("%s(%s)", id.Name, argList)
	}
	return fmt.Sprintf("%s(%s)", expr(c.Fn), argList)
}

func sentenceCase(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}
