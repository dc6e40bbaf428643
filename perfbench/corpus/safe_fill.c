/* A bounded fill loop: every write stays strictly below the buffer
   size, with the terminator placed at the last cell. */

#define SIZE 64

void fill(void)
{
    char buf[SIZE];
    int i;

    i = 0;
loop:
    if (i >= SIZE - 1) goto done;
    buf[i] = 'x';
    i = i + 1;
    goto loop;
done:
    buf[SIZE - 1] = '\0';
}
