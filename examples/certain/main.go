// Certain contrasts classic consistent query answering (certain answers)
// with the paper's refined relative-frequency semantics on an inconsistent
// product catalog assembled from conflicting sources: certain answers
// discard everything uncertain, while relative frequencies grade each
// candidate answer by the fraction of repairs supporting it.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"

	"cqabench/internal/cq"
	"cqabench/internal/cqa"
	"cqabench/internal/relation"
	"cqabench/internal/synopsis"
)

func main() {
	// A catalog integrated from two vendor feeds that disagree on prices
	// and stock levels: product is keyed by sku, stock by warehouse+sku.
	schema := relation.MustSchema([]relation.RelDef{
		{Name: "product", Attrs: []string{"sku", "name", "category", "price"}, KeyLen: 1},
		{Name: "stock", Attrs: []string{"warehouse", "sku", "qty"}, KeyLen: 2},
	}, nil)
	db := relation.NewDatabase(schema)

	// Feed A.
	db.MustInsert("product", 1, "usb-cable", "accessories", 9)
	db.MustInsert("product", 2, "keyboard", "peripherals", 49)
	db.MustInsert("product", 3, "mouse", "peripherals", 29)
	db.MustInsert("stock", "east", 1, 120)
	db.MustInsert("stock", "east", 2, 10)
	db.MustInsert("stock", "west", 3, 5)
	// Feed B disagrees: different price for the keyboard, different
	// category for the mouse, different stock count for the cable.
	db.MustInsert("product", 2, "keyboard", "peripherals", 59)
	db.MustInsert("product", 3, "mouse", "accessories", 29)
	db.MustInsert("stock", "east", 1, 80)

	fmt.Printf("Catalog: %d facts, consistent=%v\n\n", db.NumFacts(), relation.IsConsistentDB(db))

	// Which peripherals are in stock somewhere?
	q := cq.MustParse(
		"Q(n) :- product(s, n, 'peripherals', p), stock(w, s, qty)",
		db.Dict)
	fmt.Println("Query:", q.Render(db.Dict))

	certain, err := cqa.CertainAnswers(db, q, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nCertain answers (true in EVERY repair):")
	if len(certain) == 0 {
		fmt.Println("  (none)")
	}
	for _, t := range certain {
		fmt.Println("  " + render(db, t))
	}

	exact, err := cqa.ExactAnswers(db, q, 0)
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i].Freq > exact[j].Freq })
	fmt.Println("\nRelative frequencies (exact, via synopses):")
	for _, tf := range exact {
		fmt.Printf("  %-12s %.3f\n", render(db, tf.Tuple), tf.Freq)
	}

	fmt.Println("\nApproximated with KLM (eps=0.1, delta=0.25):")
	set, err := synopsis.Build(db, q)
	if err != nil {
		log.Fatal(err)
	}
	approx, stats, err := cqa.ApxAnswersFromSetContext(context.Background(), set, cqa.KLM, cqa.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(approx, func(i, j int) bool { return approx[i].Freq > approx[j].Freq })
	for _, tf := range approx {
		fmt.Printf("  %-12s %.3f\n", render(db, tf.Tuple), tf.Freq)
	}
	fmt.Printf("(%d samples in %s)\n", stats.Samples, stats.Elapsed.Round(1000))
}

func render(db *relation.Database, t relation.Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = db.Dict.Render(v)
	}
	return strings.Join(parts, ", ")
}
