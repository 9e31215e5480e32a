// Customschema shows the end-user flow on your own schema rather than the
// built-in TPC benchmarks: declare a schema in the text DSL, load
// conflicting data (e.g. an integration of disagreeing sources), inspect
// the inconsistency, and query it with automatic scheme selection.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"cqabench"
)

const schemaDSL = `
# A hospital roster integrated from two departmental systems.
relation doctor(id*, name, specialty, pager)
relation shift(ward*, day*, doctor_id)
fk shift(doctor_id) -> doctor(id)
`

const dataText = `doctor|i:1|s:Okafor|s:cardiology|i:5501
doctor|i:1|s:Okafor|s:oncology|i:5501
doctor|i:2|s:Lindqvist|s:neurology|i:5502
doctor|i:3|s:Haddad|s:cardiology|i:5503
doctor|i:3|s:Haddad|s:cardiology|i:5504
shift|s:ICU|s:mon|i:1
shift|s:ICU|s:tue|i:2
shift|s:ER|s:mon|i:3
shift|s:ER|s:tue|i:3
`

func main() {
	schema, err := cqabench.ParseSchemaString(schemaDSL)
	if err != nil {
		log.Fatal(err)
	}
	db, err := cqabench.ReadDatabase(strings.NewReader(dataText), schema)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d facts; consistent: %v; repairs: %s\n",
		db.NumFacts(), cqabench.IsConsistent(db), cqabench.CountRepairs(db))

	// Which wards have a cardiologist on shift? The sources disagree on
	// Okafor's specialty and on Haddad's pager, so the answer is graded.
	q := cqabench.MustParseQuery(
		"Q(ward) :- shift(ward, day, doc), doctor(doc, n, 'cardiology', pg)", db)
	fmt.Println("query:", q.Render(db.Dict))

	exact, err := cqabench.ExactAnswers(db, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nexact relative frequencies:")
	for _, tf := range exact {
		fmt.Printf("  %-6s %.3f\n", db.Dict.Render(tf.Tuple[0]), tf.Freq)
	}

	ctx := context.Background()
	set, err := cqabench.BuildSynopsisContext(ctx, db, q)
	if err != nil {
		log.Fatal(err)
	}
	scheme := cqabench.SelectScheme(set)
	res, stats, err := cqabench.ApproximateContext(ctx, set, scheme, cqabench.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\napproximated with auto-selected scheme %v (balance %.2f):\n", scheme, set.Balance())
	for _, tf := range res {
		fmt.Printf("  %-6s %.3f\n", db.Dict.Render(tf.Tuple[0]), tf.Freq)
	}
	fmt.Printf("(%d samples, %s)\n", stats.Samples, stats.Elapsed.Round(1000))

	certain, err := cqabench.CertainAnswers(db, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncertain answers (classic CQA):")
	if len(certain) == 0 {
		fmt.Println("  (none — every candidate is uncertain)")
	}
	for _, t := range certain {
		fmt.Println("  " + db.Dict.Render(t[0]))
	}
}
